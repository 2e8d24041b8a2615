package pmap

import (
	"slices"

	"vcache/internal/arch"
	"vcache/internal/core"
	"vcache/internal/policy"
	"vcache/internal/sim"
	"vcache/internal/trace"
)

// This file is the runtime of the peer consistency backends (their
// kinds are policy.Backend, the RLT-VIVT table is core's RLTVIVT
// variant): the reverse-lookup synonym table of the RLT-VIVT backend,
// the write-run mode switching of the HYBRID backend, and the counters
// both report. Both are cost/attribution models layered on the
// same functional state machine — the cache and memory contents under
// any backend are identical to the CMU scheme's, which is what keeps
// the oracle, the replay closure, and the fast-path identity proofs
// meaningful across backends:
//
//   - RLT-VIVT: a consistency operation that hardware would satisfy by
//     re-binding the line's tag is still *performed* (the state machine
//     and the data need the same end state), but its cycles are
//     refunded and replaced by one RLT lookup charge (sim.CatRLT).
//   - HYBRID: a page in update mode is uncached (memory is always
//     current — the update propagation), reusing the Sun variant's
//     uncached machinery; invalidate mode is the unmodified algorithm.
//
// Both hang off the pmap's one entry to the algorithm, control
// (pmap.go): it marks the flushes and purges an RLT may assist and
// counts the hybrid's dirty-page displacements from CacheControl's
// result.

// rltCapacity is the number of physical pages the simulated
// reverse-lookup table tracks. The RLT covers pages with live synonyms
// (two or more simultaneous mappings); synonym working sets are small,
// so a modest structure suffices and overflowing it is the interesting
// measurable event.
const rltCapacity = 64

// hybridWriteRunThreshold is how many dirty-page displacements by a
// differently-colored CPU access a synonym page tolerates before the
// write-run heuristic declares the invalidate scheme pathological and
// switches the page to update mode.
const hybridWriteRunThreshold = 3

// Counter is one named backend counter.
type Counter struct {
	Name  string
	Value uint64
}

// BackendCounters returns the counters of backend kind in report
// order, or nil for the CMU scheme, which has none of its own.
func (s Stats) BackendCounters(kind policy.Backend) []Counter {
	switch kind {
	case policy.BackendRLT:
		return []Counter{{"assists", s.RLTAssists}, {"inserts", s.RLTInserts}, {"evictions", s.RLTEvictions}}
	case policy.BackendHybrid:
		return []Counter{{"update-switches", s.HybridUpdateSwitches}, {"reverts", s.HybridReverts}}
	}
	return nil
}

// rltAssisted reports whether the consistency operation now being
// issued is covered by the RLT: the backend is RLT, the operation is
// driven by a CPU access (device-driven flushes/purges cannot be
// remapped away — the device reads memory, not the cache), and the
// frame has a live entry.
func (p *Pmap) rltAssisted(f arch.PFN) bool {
	return p.feat.Backend == policy.BackendRLT && p.rltCPUOp && p.phys[f].inRLT
}

// rltAssist performs the functional flush/purge and converts its cost
// into one reverse-lookup assist: the cycles the software operation
// charged are refunded and a single RLT lookup is charged to
// sim.CatRLT. Memory, cache, and consistency state end exactly as
// under the software scheme; only the attribution differs.
func (p *Pmap) rltAssist(c arch.CachePage, f arch.PFN, flush bool) {
	cat := sim.CatPurge
	kind := trace.EvPurge
	if flush {
		cat = sim.CatFlush
		kind = trace.EvFlush
	}
	before := p.m.Clock.CyclesIn(cat)
	if flush {
		p.m.FlushDPage(c, f)
	} else {
		p.m.PurgeDPage(c, f)
	}
	p.m.Clock.Refund(cat, p.m.Clock.CyclesIn(cat)-before)
	p.m.Clock.Charge(sim.CatRLT, p.m.Clock.Timing().RLTAssist)
	p.stats.RLTAssists++
	p.emit(kind, f, c, "rlt")
}

// rltEnsure gives frame f an RLT entry once it has live synonyms,
// evicting the oldest entry if the table is full. Called from Enter.
func (p *Pmap) rltEnsure(f arch.PFN) {
	if p.feat.Backend != policy.BackendRLT || len(p.phys[f].mappings) < 2 || p.phys[f].inRLT {
		return
	}
	p.rlt = append(p.rlt, f)
	p.phys[f].inRLT = true
	p.stats.RLTInserts++
	if len(p.rlt) > rltCapacity {
		victim := p.rlt[0]
		p.rlt = p.rlt[1:]
		p.phys[victim].inRLT = false
		p.rltEvict(victim)
	}
}

// rltDrop removes frame f's entry without cleaning: when the synonym
// set collapses (Remove) or the page dies (FreeFrame), the remaining
// single mapping is plain VIVT and software's lazy scheme takes over.
func (p *Pmap) rltDrop(f arch.PFN) {
	if !p.phys[f].inRLT {
		return
	}
	p.phys[f].inRLT = false
	if i := slices.Index(p.rlt, f); i >= 0 {
		p.rlt = slices.Delete(p.rlt, i, i+1)
	}
}

// rltEvict handles a capacity eviction: the victim's synonym lines can
// no longer be re-bound in hardware, so software must clean the frame
// now. The flush/purge work is real (the total cycle count keeps it)
// but is re-attributed to sim.CatRLTEvict so the tables show the cost
// of undersizing the structure.
func (p *Pmap) rltEvict(f arch.PFN) {
	pp := &p.phys[f]
	fb := p.m.Clock.CyclesIn(sim.CatFlush)
	pb := p.m.Clock.CyclesIn(sim.CatPurge)
	p.cleanFrame(pp, f, true)
	if d := p.m.Clock.CyclesIn(sim.CatFlush) - fb; d > 0 {
		p.m.Clock.Move(sim.CatFlush, sim.CatRLTEvict, d)
	}
	if d := p.m.Clock.CyclesIn(sim.CatPurge) - pb; d > 0 {
		p.m.Clock.Move(sim.CatPurge, sim.CatRLTEvict, d)
	}
	p.stats.RLTEvictions++
}

// hybridDirtyDisplaced counts one writer alternation on frame f: a CPU
// access through one color displaced the page's dirty data cached under
// another, the access pattern invalidate-based schemes are worst at.
// Crossing the write-run threshold queues the page for a switch to
// update mode, which hybridApplyPending applies once the fault or
// access that queued it has finished its own consistency work.
func (p *Pmap) hybridDirtyDisplaced(f arch.PFN) {
	pp := &p.phys[f]
	if pp.uncached || p.synonymColors(pp) < 2 {
		return
	}
	pp.hybridAlt++
	if pp.hybridAlt >= hybridWriteRunThreshold {
		p.hybridPending = append(p.hybridPending, f)
	}
}

// synonymColors counts the distinct data-cache colors among frame
// mappings — two or more means unaligned synonyms exist.
func (p *Pmap) synonymColors(pp *physPage) int {
	var seen core.BitVec
	for _, m := range pp.mappings {
		seen.Set(m.CachePage)
	}
	return seen.Count()
}

// hybridApplyPending applies queued update-mode switches. Conditions
// are re-checked: the algorithm run that queued the switch may itself
// have changed the page's mapping set or mode.
func (p *Pmap) hybridApplyPending() {
	if len(p.hybridPending) == 0 {
		return
	}
	pending := p.hybridPending
	p.hybridPending = p.hybridPending[:0]
	for _, f := range pending {
		pp := &p.phys[f]
		if pp.uncached || pp.hybridAlt < hybridWriteRunThreshold || p.synonymColors(pp) < 2 {
			continue
		}
		p.hybridSwitchToUpdate(pp, f)
	}
}

// hybridSwitchToUpdate puts frame f into update mode: uncacheFrame
// cleans the data cache and makes the frame and all its translations
// uncacheable, as Sun does, and the instruction cache is cleaned too by
// purging every mapped or stale page — unlike Sun, hybrid pages can
// later revert to cached, so no stale I-line may survive the uncached
// epoch. Memory is current from here on — every store goes straight
// through, which is the "update" propagation of the hybrid protocol.
func (p *Pmap) hybridSwitchToUpdate(pp *physPage, f arch.PFN) {
	p.uncacheFrame(pp, f)
	ip := pp.iMapped | pp.iStale
	ip.ForEach(func(c arch.CachePage) { p.purgeICachePage(c, f) })
	pp.iMapped, pp.iStale = 0, 0
	pp.hybridAlt = 0
	p.stats.HybridUpdateSwitches++
}

// hybridReevaluate runs when a mapping is removed: once the synonym
// set collapses to a single color the write-run evidence is void, and
// an update-mode page reverts to cached operation. The page left
// update mode with both caches empty and memory current, and stayed
// that way (uncached accesses touch neither cache), so reverting is
// pure bookkeeping: re-enable caching and force the next access
// through the algorithm.
func (p *Pmap) hybridReevaluate(pp *physPage, f arch.PFN) {
	if p.feat.Backend != policy.BackendHybrid || p.synonymColors(pp) >= 2 {
		return
	}
	pp.hybridAlt = 0
	if !pp.uncached {
		return
	}
	pp.uncached = false
	for _, m := range pp.mappings {
		if te := p.pt.lookup(m.Space, m.VPN); te != nil && te.uncached {
			te.uncached = false
			p.m.InvalidateTLB(m.Space, m.VPN)
			p.SetProtection(m, arch.ProtNone)
		}
	}
	p.stats.HybridReverts++
}
