package cache

import (
	"vcache/internal/arch"
	"vcache/internal/sim"
)

// Bulk page operations: the line-granular fast paths behind the pmap's
// ZeroPage/CopyPage word loops. Each method reproduces, line by line,
// exactly the observable effects of the corresponding sequence of
// word-at-a-time Read/Write calls — the same hit/miss/write-back
// decisions, the same event counts, the same cycle charges, the same
// memory mutations in the same order, and the same relative LRU ordering
// of every line in the cache — while touching each line once instead of
// once per word.
//
// They are only equivalent for a write-back cache whose set index is a
// pure function of the virtual address (the VIPT configuration the paper
// targets): write-through charges memory per word, and physical indexing
// can land a copy's source and destination in the same sets, where the
// word-interleaved reference order evicts line-by-line in ways a bulk
// pass cannot reproduce. CanBulk gates on exactly those conditions; the
// caller additionally guarantees (and the machine layer re-checks) that
// a copy's source and destination windows have distinct cache colors.

// CanBulk reports whether this cache's bulk page operations are
// observably identical to the word-at-a-time reference sequence.
func (c *Cache) CanBulk() bool {
	return c.cfg.Policy == WriteBack && c.cfg.Indexing == VirtualIndex && !c.cfg.ReadOnly
}

// BulkZeroTail performs the stores of a page zero-fill for words
// 1..words-1 of the page at (va, pa). Word 0 must already have gone
// through the full Write path (resolving faults and ensuring the first
// line is resident), which is why the tail starts mid-line.
func (c *Cache) BulkZeroTail(va arch.VA, pa arch.PA, words uint64) {
	wpl := c.geom.WordsPerLine()
	t := c.clock.Timing()
	for w := uint64(1); w < words; {
		lineStart := w &^ (wpl - 1)
		end := lineStart + wpl
		if end > words {
			end = words
		}
		n := end - w
		wordPA := pa + arch.PA(w*arch.WordSize)
		si := c.setIndex(va+arch.VA(w*arch.WordSize), wordPA)
		tag := c.lineTag(wordPA)
		i := c.lookup(si, tag)
		if i < 0 {
			// One miss (the line's first word), then hits: identical to
			// the per-word loop, where the fill makes the rest hit.
			c.stats.Misses++
			c.stats.Hits += n - 1
			i = c.victim(si)
			// For a full line the fill data is dead — every word is
			// about to be overwritten — so the memory read is skipped;
			// its cycle charge is not. A partial line keeps the words the
			// per-word fill would have brought in. (Unreachable for a full
			// page — word 0 keeps the first line resident — kept for
			// exactness on any caller.)
			c.fill(i, tag, w != lineStart)
		} else {
			c.stats.Hits += n
		}
		c.stats.Writes += n
		c.tick += n
		ln := &c.lines[i]
		ln.lru = c.tick
		clear(c.words(i)[w-lineStart : end-lineStart])
		ln.dirty = true
		c.clock.Charge(sim.CatAccess, t.CacheHit*n)
		w = end
	}
}

// BulkCopyTail performs the read/write pairs of a page copy for words
// 1..words-1: source page at (sva, spa), destination at (dva, dpa).
// Word 0 of both pages must already have gone through the full
// Read/Write path. The source and destination must select disjoint sets
// (distinct cache colors) — the caller verifies this.
func (c *Cache) BulkCopyTail(sva arch.VA, spa arch.PA, dva arch.VA, dpa arch.PA, words uint64) {
	wpl := c.geom.WordsPerLine()
	t := c.clock.Timing()
	for w := uint64(1); w < words; {
		lineStart := w &^ (wpl - 1)
		end := lineStart + wpl
		if end > words {
			end = words
		}
		n := end - w

		// Source line: n reads. A miss may write back a dirty victim
		// and must genuinely fill from memory — the data is live.
		off := arch.PA(w * arch.WordSize)
		ssi := c.setIndex(sva+arch.VA(off), spa+off)
		stag := c.lineTag(spa + off)
		src := c.lookup(ssi, stag)
		if src < 0 {
			c.stats.Misses++
			c.stats.Hits += n - 1
			src = c.victim(ssi)
			c.fill(src, stag, true)
		} else {
			c.stats.Hits += n
		}
		c.stats.Reads += n
		c.tick += n
		c.lines[src].lru = c.tick
		c.clock.Charge(sim.CatAccess, t.CacheHit*n)

		// Destination line: n writes of the just-read source words.
		// Disjoint sets mean this cannot evict the source line, so src
		// stays valid across the copy below.
		dsi := c.setIndex(dva+arch.VA(off), dpa+off)
		dtag := c.lineTag(dpa + off)
		dst := c.lookup(dsi, dtag)
		if dst < 0 {
			c.stats.Misses++
			c.stats.Hits += n - 1
			dst = c.victim(dsi)
			c.fill(dst, dtag, w != lineStart)
		} else {
			c.stats.Hits += n
		}
		c.stats.Writes += n
		c.tick += n
		c.lines[dst].lru = c.tick
		copy(c.words(dst)[w-lineStart:end-lineStart], c.words(src)[w-lineStart:end-lineStart])
		c.lines[dst].dirty = true
		c.clock.Charge(sim.CatAccess, t.CacheHit*n)
		w = end
	}
}
