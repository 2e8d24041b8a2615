package machine

import (
	"vcache/internal/arch"
)

// Bulk page paths. BulkZeroPage and BulkCopyPage are the machine-level
// halves of the pmap's zero-fill and page-copy fast paths. Both follow
// the same shape:
//
//   - the first word goes through the full Read/Write pipeline, which
//     resolves the consistency faults of a fresh window mapping, refills
//     the TLB, and charges exactly what the reference loop's first
//     iteration charges;
//   - the remaining words are then modeled in bulk: TouchRepeat accounts
//     the TLB hits the loop would score, and the cache's Bulk*Tail
//     methods reproduce the per-line hit/miss/write-back behavior.
//
// The result is observation-identical to the word loop — same Result
// bytes, same cache/TLB statistics, same memory images — whenever the
// guards hold: no oracle (it records every word), a write-back virtually
// indexed data cache (see cache.CanBulk), and a cacheable translation.
// When a guard fails the methods return the number of words already
// performed (0 or 1) and the caller finishes with the reference loop, so
// oracle mode, traced runs, and the cache variants keep the exact slow
// path.
//
// On a multiprocessor the reference loop snoops peers once per word;
// the bulk paths hoist that to once per *line* (snoopTail). That is
// exact, not approximate: SnoopRead and SnoopInvalidate are idempotent
// per line — the first probe writes back (and, for invalidate, drops)
// the peer's copy and the remaining wpl-1 probes of the loop find the
// line absent or clean and do nothing, charge nothing, and count
// nothing. Within one page no two words share a set with different
// tags (the in-page lines occupy consecutive sets of one cache page),
// and the current CPU's own fills between snoops cannot re-populate a
// *peer* cache, so probe order across lines is immaterial.

// canBulkData reports whether the machine-level bulk data paths apply.
func (m *Machine) canBulkData() bool {
	return !m.noFast && !m.noBulk && m.Oracle == nil && m.cpus[0].DCache.CanBulk()
}

// BulkDataEnabled exposes the bulk-path guard for the backend
// fast-path safety test: a backend that declares itself bulk-ineligible
// must observably have the paths off (modulo the oracle, which forces
// the slow path regardless).
func (m *Machine) BulkDataEnabled() bool { return !m.noFast && !m.noBulk }

// snoopTail performs the per-line peer snoops for the tail of a bulk
// page operation: every line of the page at (va, pa) except line 0,
// whose snoop the first word's full-pipeline access already fired.
// invalidate selects write ownership (peers write back and drop) versus
// read sharing (peers write back dirty data, keep it clean). Hoisting
// the snoops ahead of the tail's fills and victim write-backs cannot
// reorder two writes to one memory line: hardware coherence keeps at
// most one dirty *aligned* copy system-wide, so an address a peer snoop
// writes back is never also dirty in the current cache, and unaligned
// dirty aliases are invisible to the (set, tag) probe in either order.
func (m *Machine) snoopTail(va arch.VA, pa arch.PA, words uint64, invalidate bool) {
	if len(m.cpus) == 1 {
		return
	}
	cur := m.cpu().DCache
	wpl := m.Geom.WordsPerLine()
	for w := wpl; w < words; w += wpl {
		lva := va + arch.VA(w*arch.WordSize)
		lpa := pa + arch.PA(w*arch.WordSize)
		si := cur.AccessIndex(lva, lpa)
		tag := cur.Tag(lpa)
		for i := range m.cpus {
			if i == m.current {
				continue
			}
			if invalidate {
				m.cpus[i].DCache.SnoopInvalidate(si, tag)
			} else {
				m.cpus[i].DCache.SnoopRead(si, tag)
			}
		}
	}
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
	m.snoopTail(base, pa, words, true)
	cpu.DCache.BulkZeroTail(base, pa, words)
	return words, nil
}

// BulkCopyPage copies the page mapped at (space, sbase) to the one at
// (space, dbase), both page-aligned. The return convention matches
// BulkZeroPage: the word count performed, and the error (if any) the
// reference loop's first iteration would have produced. It falls back
// after one word when either translation is uncacheable or the two
// pages share a cache color (the word-interleaved reference order then
// thrashes one set in a way a bulk pass cannot reproduce; the window
// allocator never hands out same-color pairs, but identity is re-checked
// here rather than assumed).
func (m *Machine) BulkCopyPage(space arch.SpaceID, sbase, dbase arch.VA) (uint64, error) {
	if !m.canBulkData() {
		return 0, nil
	}
	v, err := m.Read(space, sbase)
	if err != nil {
		return 0, err
	}
	if err := m.Write(space, dbase, v); err != nil {
		return 1, err
	}
	cpu := m.cpu()
	svpn := m.Geom.PageOf(sbase)
	dvpn := m.Geom.PageOf(dbase)
	se, sok := cpu.TLB.Peek(space, svpn)
	de, dok := cpu.TLB.Peek(space, dvpn)
	if !sok || !dok || se.Uncached || de.Uncached {
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
	cpu.TLB.TouchRepeat(space, svpn, rest)
	cpu.TLB.TouchRepeat(space, dvpn, rest)
	spa := m.Geom.Translate(sbase, se.PFN)
	dpa := m.Geom.Translate(dbase, de.PFN)
	// Peer snoops in the reference loop's per-line order: the source
	// read's sharing snoop, then the destination write's ownership
	// snoop (source and destination never share a set — the color
	// guard above — so the two passes touch disjoint peer lines).
	m.snoopTail(sbase, spa, words, false)
	m.snoopTail(dbase, dpa, words, true)
	cpu.DCache.BulkCopyTail(sbase, spa, dbase, dpa, words)
	return words, nil
}
