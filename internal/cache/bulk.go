package cache

import (
	"vcache/internal/arch"
	"vcache/internal/oracle"
)

// Bulk page operations: the line-granular fast paths behind the pmap's
// ZeroPage/CopyPage word loops. Each line of the tail is one access call
// covering that line's words, so the hit/miss/write-back decisions, the
// event counts, the cycle charges, the memory mutations and their order,
// and the relative LRU ordering of every line in the cache are exactly
// those of the word-at-a-time Read/Write sequence.
//
// They are only equivalent for a write-back cache whose set index is a
// pure function of the virtual address (the VIPT configuration the paper
// targets): write-through stores every word to memory, and physical
// indexing can land a copy's source and destination in the same sets,
// where the word-interleaved reference order evicts line-by-line in ways
// a bulk pass cannot reproduce. CanBulk gates on exactly those
// conditions; the caller additionally guarantees (and the machine layer
// re-checks) that a copy's source and destination windows have distinct
// cache colors. The oracle o (nil when off) sees every word as the word
// loop would: a copy's frames differ, so observing then recording a
// line keeps the loop's order.

// CanBulk reports whether this cache's bulk page operations are
// observably identical to the word-at-a-time reference sequence.
func (c *Cache) CanBulk() bool {
	return c.cfg.Policy == WriteBack && c.cfg.Indexing == VirtualIndex && !c.cfg.ReadOnly
}

// BulkZeroTail performs the stores of a page zero-fill for words
// 1..words-1 of the page at (va, pa). Word 0 must already have gone
// through the full Write path (resolving faults and ensuring the first
// line is resident), which is why the tail starts mid-line.
func (c *Cache) BulkZeroTail(o *oracle.Oracle, va arch.VA, pa arch.PA, words uint64) {
	wpl := c.geom.WordsPerLine()
	for w := uint64(1); w < words; {
		lineStart := w &^ (wpl - 1)
		end := min(lineStart+wpl, words)
		off := w * arch.WordSize
		// For a full line the fill data is dead — every word is about
		// to be overwritten — so the memory read is skipped. A partial
		// line keeps the words the per-word fill would have brought in.
		// (Unreachable for a full page — word 0 keeps the first line
		// resident — kept for exactness on any caller.)
		i := c.access(va+arch.VA(off), pa+arch.PA(off), end-w, true, w != lineStart, 0)
		clear(c.data[i : i+int(end-w)])
		if o != nil {
			o.RecordWrites(pa+arch.PA(off), c.data[i:i+int(end-w)])
		}
		w = end
	}
}

// BulkCopyTail performs the read/write pairs of a page copy for words
// 1..words-1: source page at (sva, spa), destination at (dva, dpa).
// Word 0 of both pages must already have gone through the full
// Read/Write path. The source and destination must select disjoint sets
// (distinct cache colors) — the caller verifies this.
func (c *Cache) BulkCopyTail(o *oracle.Oracle, sva arch.VA, spa arch.PA, dva arch.VA, dpa arch.PA, words uint64) {
	wpl := c.geom.WordsPerLine()
	for w := uint64(1); w < words; {
		lineStart := w &^ (wpl - 1)
		end := min(lineStart+wpl, words)
		off := w * arch.WordSize
		// Source line: a miss may write back a dirty victim and must
		// genuinely fill from memory — the data is live. Disjoint sets
		// mean the destination access cannot evict it, so src stays
		// valid across the copy below.
		src := c.access(sva+arch.VA(off), spa+arch.PA(off), end-w, false, true, 0)
		dst := c.access(dva+arch.VA(off), dpa+arch.PA(off), end-w, true, w != lineStart, c.data[src])
		copy(c.data[dst:dst+int(end-w)], c.data[src:src+int(end-w)])
		if o != nil {
			o.ObserveWords(oracle.CPURead, spa+arch.PA(off), c.data[src:src+int(end-w)])
			o.RecordWrites(dpa+arch.PA(off), c.data[src:src+int(end-w)])
		}
		w = end
	}
}
