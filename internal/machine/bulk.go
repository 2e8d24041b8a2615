package machine

import (
	"vcache/internal/arch"
	"vcache/internal/oracle"
)

// Bulk page paths. BulkZeroPage, BulkCopyPage and Strided are the
// machine-level halves of every kernel page loop: the pmap's zero-fill
// and page copy, the file system's buffer zeroing, the read(2)/write(2)
// copy between a buffer and a user page (across two address spaces),
// and the strided same-page loops of heap, text, mapped-page,
// file-content and Unix-server channel accesses. All share one shape:
//
//   - the first word goes through the full Read/Write/Fetch pipeline,
//     which resolves the page's faults, refills the TLB, and charges
//     exactly what the reference loop's first iteration charges;
//   - the other words cannot fault — they use the translation the first
//     word left resident — so TouchRepeat accounts their TLB hits in
//     one step.
//
// The tail then goes a cache line at a time: each line is one call of
// the cache's line-access primitive (through the Bulk*Tail methods, or
// AccessLine for Strided), which charges exactly what that line's
// word-by-word accesses charge. BulkZeroPage and BulkCopyPage also move
// the tail's data a line at a time, handing the oracle each line's
// words, so they are observation-identical to the word loop — same
// Result bytes, oracle checks, cache/TLB statistics and memory images —
// only when their guards hold: a write-back virtually indexed data
// cache (cache.CanBulk) and cacheable translations. Strided keeps every
// word's oracle call and next() value and loads or stores each word
// through the cache (write-through included), so it needs neither
// guard. When a guard fails the word loop finishes the job, so the cache
// variants keep the exact slow path; DisableFastPaths turns all three
// off.
//
// On a multiprocessor the reference loop snoops every peer once per
// word. The tails snoop once per *line*, and only the peers whose data
// cache holds some line of the run's frame (peers, taken once per run).
// Both reductions are exact, not approximate:
//
//   - SnoopRead and SnoopInvalidate are idempotent per line: the first
//     probe writes back (and, for invalidate, drops) the peer's copy,
//     and the line's later probes find it absent or clean and do
//     nothing, charge nothing and count nothing. The current CPU's own
//     fills between probes cannot re-populate a *peer* cache, and within
//     one page no two lines share a set, so probe order across lines is
//     immaterial too.
//   - A run's accesses can only lower a peer's residency count — its
//     snoops invalidate peer lines; its fills and write-backs touch only
//     the current cache and memory — so a peer holding nothing of the
//     frame when the run starts holds nothing of it at any later probe,
//     which would have found no line.
//
// The bulk zero and copy send the whole tail's probes ahead of its fills
// and victim write-backs. That cannot reorder two writes to one memory
// line: hardware coherence keeps at most one dirty *aligned* copy
// system-wide, so an address a peer snoop writes back is never also
// dirty in the current cache, and unaligned dirty aliases are invisible
// to the (set, tag) probe in either order.
//
// A peer's unaligned alias of the frame counts toward its residency, so
// that peer is probed, but the (set, tag) probe never finds the alias:
// unaligned aliases remain the software's problem.

// canBulkData reports whether the machine-level bulk data paths apply.
func (m *Machine) canBulkData() bool {
	return !m.noFast && m.cpus[0].DCache.CanBulk()
}

// BulkZeroPage zero-fills the page mapped at (space, base), base
// page-aligned. It returns how many words were performed: 0 (guards
// failed, caller runs the full loop), 1 (the translation turned out
// uncacheable after the first word), or the full page. An error is the
// same error the reference loop's first store would have returned.
func (m *Machine) BulkZeroPage(space arch.SpaceID, base arch.VA) (uint64, error) {
	if !m.canBulkData() {
		return 0, nil
	}
	if err := m.Write(space, base, 0); err != nil {
		return 1, err
	}
	cpu := m.cpu()
	vpn := m.Geom.PageOf(base)
	e, ok := cpu.TLB.Peek(space, vpn)
	if !ok || e.Uncached {
		return 1, nil
	}
	words := m.Geom.WordsPerPage()
	rest := words - 1
	m.stats.Writes += rest
	cpu.TLB.TouchRepeat(space, vpn, rest)
	pa := m.Geom.Translate(base, e.PFN)
	// Line 0's snoop went out with the first word; the tail's lines
	// take one probe per held peer each.
	line, lines := m.Geom.LineSize, m.Geom.PageSize/m.Geom.LineSize-1
	m.snoop(m.peers(pa), base+arch.VA(line), pa+arch.PA(line), lines, true)
	cpu.DCache.BulkZeroTail(m.Oracle, base, pa, words)
	return words, nil
}

// BulkCopyPage copies the page mapped at (sspace, sbase) to the one at
// (dspace, dbase), both page-aligned; the spaces may differ (the
// read(2)/write(2) copy between a buffer's kernel mapping and a user
// page). The return convention matches BulkZeroPage: the word count
// performed, and the error (if any) the reference loop's first
// iteration would have produced — 0 when the source read failed, 1 when
// the destination write did. It falls back after one word when either
// translation is uncacheable or no longer resident (the destination's
// fault may have shot the source down), when the two pages are one
// frame, or when they share a cache color (the word-interleaved
// reference order then thrashes one set in a way a bulk pass cannot
// reproduce; the window allocator never hands out same-color pairs, but
// identity is re-checked here rather than assumed).
func (m *Machine) BulkCopyPage(sspace arch.SpaceID, sbase arch.VA, dspace arch.SpaceID, dbase arch.VA) (uint64, error) {
	if !m.canBulkData() {
		return 0, nil
	}
	v, err := m.Read(sspace, sbase)
	if err != nil {
		return 0, err
	}
	if err := m.Write(dspace, dbase, v); err != nil {
		return 1, err
	}
	cpu := m.cpu()
	svpn := m.Geom.PageOf(sbase)
	dvpn := m.Geom.PageOf(dbase)
	se, sok := cpu.TLB.Peek(sspace, svpn)
	de, dok := cpu.TLB.Peek(dspace, dvpn)
	if !sok || !dok || se.Uncached || de.Uncached || se.PFN == de.PFN {
		return 1, nil
	}
	colorMask := cpu.DCache.CachePages() - 1
	if uint64(svpn)&colorMask == uint64(dvpn)&colorMask {
		return 1, nil
	}
	words := m.Geom.WordsPerPage()
	rest := words - 1
	m.stats.Reads += rest
	m.stats.Writes += rest
	// The reference loop alternates source and destination TLB hits.
	// Batching them per page preserves every observable: the hit and
	// tick totals are the same, and the final LRU stamps keep the same
	// relative order (source older than destination, both newer than
	// everything else) as the interleaved stamps they replace.
	cpu.TLB.TouchRepeat(sspace, svpn, rest)
	cpu.TLB.TouchRepeat(dspace, dvpn, rest)
	spa := m.Geom.Translate(sbase, se.PFN)
	dpa := m.Geom.Translate(dbase, de.PFN)
	// Peer snoops in the reference loop's per-line order: the source
	// read's sharing snoop, then the destination write's ownership
	// snoop (source and destination never share a set — the color
	// guard above — so the two passes touch disjoint peer lines).
	line, lines := m.Geom.LineSize, m.Geom.PageSize/m.Geom.LineSize-1
	m.snoop(m.peers(spa), sbase+arch.VA(line), spa+arch.PA(line), lines, false)
	m.snoop(m.peers(dpa), dbase+arch.VA(line), dpa+arch.PA(line), lines, true)
	cpu.DCache.BulkCopyTail(m.Oracle, sbase, spa, dbase, dpa, words)
	return words, nil
}

// Strided performs n accesses of kind acc at va, va+stride words,
// va+2*stride words, ... — observably the loop of n Read, Write or
// Fetch calls, in the same order, with next supplying each stored value
// (it is called for writes only). The first access runs the full
// pipeline and then, when stridedTail applies, the other n-1 are
// batched; otherwise every access runs the full pipeline.
func (m *Machine) Strided(space arch.SpaceID, va arch.VA, stride, n uint64, acc Access, next func() uint64) error {
	step := arch.VA(stride * arch.WordSize)
	for i := uint64(0); i < n; i++ {
		var err error
		switch wva := va + arch.VA(i)*step; acc {
		case AccessRead:
			_, err = m.Read(space, wva)
		case AccessWrite:
			err = m.Write(space, wva, next())
		default:
			_, err = m.Fetch(space, wva)
		}
		if err != nil {
			return err
		}
		if i == 0 && m.stridedTail(space, va, step, n, acc, next) {
			return nil
		}
	}
	return nil
}

// stridedTail performs accesses 1..n-1 of a Strided run whose first
// access has just completed, when they stay on its page and its
// translation is cacheable (and the fast paths are on), and reports
// whether it ran. Their TLB hits are one TouchRepeat; the rest goes one
// cache line at a time: the k accesses that fall in a line take one
// snoop of the peers holding the frame (later probes of a line the
// first one serviced find nothing to do) and one cache access of k
// words, and each word keeps its own oracle call and, for a store, its
// own next() value, in run order. A stride of a line or more is k = 1.
func (m *Machine) stridedTail(space arch.SpaceID, va, step arch.VA, n uint64, acc Access, next func() uint64) bool {
	cpu := m.cpu()
	vpn := m.Geom.PageOf(va)
	e, ok := cpu.TLB.Peek(space, vpn)
	if m.noFast || !ok || e.Uncached || m.Geom.PageOf(va+arch.VA(n-1)*step) != vpn {
		return false
	}
	cpu.TLB.TouchRepeat(space, vpn, n-1)
	pa := m.Geom.Translate(va, e.PFN)
	c, set, consumer := cpu.DCache, uint64(0), oracle.CPURead
	switch acc {
	case AccessRead:
		m.stats.Reads += n - 1
		set = m.peers(pa)
	case AccessWrite:
		m.stats.Writes += n - 1
		set = m.peers(pa)
	default:
		m.stats.Fetches += n - 1
		c, consumer = cpu.ICache, oracle.CPUFetch
	}
	write := acc == AccessWrite
	line := arch.VA(m.Geom.LineSize)
	for i := uint64(1); i < n; {
		wva, wpa := va+arch.VA(i)*step, pa+arch.PA(i)*arch.PA(step)
		k := uint64(1) // the accesses from i on that fall in wva's line
		if step == 0 {
			k = n - i
		} else if step < line {
			k = min(n-i, uint64((line-1-wva&(line-1))/step)+1)
		}
		if set != 0 {
			m.snoop(set, wva, wpa, 1, write)
		}
		if write {
			v := next()
			m.Oracle.RecordWrite(wpa, v)
			l := c.AccessLine(wva, wpa, k, true, v)
			for j := uint64(1); j < k; j++ {
				v, p := next(), wpa+arch.PA(j)*arch.PA(step)
				m.Oracle.RecordWrite(p, v)
				c.Store(l, p, v)
			}
		} else {
			l := c.AccessLine(wva, wpa, k, false, 0)
			for j := uint64(0); m.Oracle != nil && j < k; j++ {
				p := wpa + arch.PA(j)*arch.PA(step)
				m.Oracle.Observe(consumer, p, c.Load(l, p))
			}
		}
		i += k
	}
	return true
}
