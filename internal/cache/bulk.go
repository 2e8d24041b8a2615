package cache

import (
	"vcache/internal/arch"
	"vcache/internal/mem"
	"vcache/internal/oracle"
	"vcache/internal/sim"
)

// Bulk page operations: the page-granular fast paths behind the pmap's
// ZeroPage/CopyPage word loops. A tail is one pass over its page's sets
// (a copy runs the whole source pass, then the whole destination pass)
// with one stats update, cycle charge and oracle call per page. It is
// the word-at-a-time Read/Write sequence in every decision, count, cycle
// total, memory mutation and its order, and relative LRU order, on a
// write-back cache indexed by virtual address (CanBulk: write-through
// stores every word to memory, and physical indexing can put a copy's
// pages in one set) when a copy's pages have distinct colors and frames
// (the caller checks). The copy's order is then exact: in one cache page
// the set fixes a line's offset within the page, so the memory line at
// offset j of any frame is touched only by line j's source fill and its
// source- and destination-victim write-backs, in that order both ways;
// the passes' sets are disjoint; and the frames differ, so the oracle
// sees each frame's words in the same order.

// CanBulk reports whether this cache's bulk page operations are
// observably identical to the word-at-a-time reference sequence.
func (c *Cache) CanBulk() bool {
	return c.cfg.Policy == WriteBack && c.cfg.Indexing == VirtualIndex && !c.cfg.ReadOnly
}

// BulkZeroTail performs the stores of a page zero-fill for words 1..n-1
// of the page at (va, pa), n = WordsPerPage. Word 0 must already have
// gone through the full Write path (resolving faults and leaving the
// first line resident), which is why the tail starts mid-line.
func (c *Cache) BulkZeroTail(o *oracle.Oracle, va arch.VA, pa arch.PA) {
	p := c.page(va, pa)
	misses, wbs := c.pass(va, pa, true, 1, p)
	clear(p[1:])
	o.RecordWrites(pa+arch.WordSize, p[1:])
	c.settle(p, 1, misses, wbs)
}

// BulkCopyTail performs the read/write pairs of a page copy for words
// 1..n-1 from the page at (sva, spa) to the one at (dva, dpa), word 0 of
// both having gone through the full Read/Write path. The caller verifies
// that the pages have distinct cache colors and frames.
func (c *Cache) BulkCopyTail(o *oracle.Oracle, sva arch.VA, spa arch.PA, dva arch.VA, dpa arch.PA) {
	s := c.page(sva, spa)
	sm, sw := c.pass(sva, spa, false, 2, s)
	dm, dw := c.pass(dva, dpa, true, 2, s)
	if c.lru == nil {
		copy(c.page(dva, dpa)[1:], s[1:])
	}
	o.ObserveWords(oracle.CPURead, spa+arch.WordSize, s[1:])
	o.RecordWrites(dpa+arch.WordSize, s[1:])
	c.settle(s, 2, sm+dm, sw+dw)
}

// page returns the words of the page at (va, pa), va page-aligned: when
// direct mapped, its lines, which lie next to each other in data; else a
// zeroed pooled page that pass moves the lines' words through.
func (c *Cache) page(va arch.VA, pa arch.PA) []uint64 {
	if c.lru == nil {
		return c.data[c.setIndex(va, pa)<<c.wordShift:][:c.geom.WordsPerPage()]
	}
	return mem.NewPage(int(c.geom.WordsPerPage()), nil)
}

// pass performs the tail's accesses to the page at (va, pa), one per
// line in set order: stores when write is set, else loads (a copy's
// source, the only fills that read memory: line 0, which a store covers
// in part, is resident after word 0). It returns the misses and dirty
// victims written back. A set-associative line moves its words here, a
// load into p, a store out of p, and gets the per-line order's stamp:
// tick + stride·W for the line's k words ending at word W, less k for a
// copy's load.
func (c *Cache) pass(va arch.VA, pa arch.PA, write bool, stride uint64, p []uint64) (misses, wbs uint64) {
	wpl := c.geom.WordsPerLine()
	si, tag := c.setIndex(va, pa), c.lineTag(pa)
	for end := wpl; end <= uint64(len(p)); end, si, tag = end+wpl, si+1, tag+arch.PA(c.geom.LineSize) {
		k := min(wpl, end-1) // line 0's tail starts at word 1
		if k == 0 {
			continue // one-word lines: line 0 is word 0 alone
		}
		i := c.lookup(si, tag)
		if i < 0 {
			misses++
			i = c.victim(si)
			if c.fill(i, tag, !write) {
				wbs++
			}
		}
		if write {
			c.tags[i] |= dirtyBit
		}
		if c.lru != nil && write {
			c.lru[i] = c.tick + stride*(end-1)
			copy(c.words(i)[wpl-k:], p[end-k:end])
		} else if c.lru != nil {
			c.lru[i] = c.tick + stride*(end-1) - k
			copy(p[end-k:end], c.words(i)[wpl-k:])
		}
	}
	return misses, wbs
}

// settle accounts at once a tail of stride accesses per word of page p
// (a copy reads and writes each word): the stats, the one CatAccess
// charge and the tick the stamps ran to. A pooled page goes back.
func (c *Cache) settle(p []uint64, stride, misses, wbs uint64) {
	words := uint64(len(p)) - 1
	c.stats.Writes += words
	c.stats.Reads += (stride - 1) * words
	c.stats.Hits += stride*words - misses
	c.stats.Misses += misses
	t := c.clock.Timing()
	c.clock.Charge(sim.CatAccess, wbs*t.WriteBack+misses*t.CacheMissFill+stride*words*t.CacheHit)
	if c.lru != nil {
		c.tick += stride * words
		mem.FreePage(p)
	}
}
