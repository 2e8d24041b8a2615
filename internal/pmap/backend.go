package pmap

import (
	"slices"

	"vcache/internal/arch"
	"vcache/internal/policy"
	"vcache/internal/sim"
	"vcache/internal/trace"
)

// This file is the runtime of the peer consistency backend (its kind is
// policy.Backend, its table core's RLTVIVT variant): the reverse-lookup
// synonym table of the RLT-VIVT backend and the counters it reports. It
// is a cost/attribution model layered on the same functional state
// machine — the cache and memory contents under RLT are identical to
// the CMU scheme's, which is what keeps the oracle, the replay closure,
// and the fast-path identity proofs meaningful across backends: a
// consistency operation that hardware would satisfy by re-binding the
// line's tag is still *performed* (the state machine and the data need
// the same end state), but its cycles are refunded and replaced by one
// RLT lookup charge (sim.CatRLT). The pmap's one entry to the
// algorithm, control (pmap.go), marks the flushes and purges an RLT may
// assist.

// rltCapacity is the number of physical pages the simulated
// reverse-lookup table tracks. The RLT covers pages with live synonyms
// (two or more simultaneous mappings); synonym working sets are small,
// so a modest structure suffices and overflowing it is the interesting
// measurable event.
const rltCapacity = 64

// Counter is one named backend counter.
type Counter struct {
	Name  string
	Value uint64
}

// BackendCounters returns the counters of backend kind in report
// order, or nil for the CMU scheme, which has none of its own.
func (s Stats) BackendCounters(kind policy.Backend) []Counter {
	if kind != policy.BackendRLT {
		return nil
	}
	return []Counter{{"assists", s.RLTAssists}, {"inserts", s.RLTInserts}, {"evictions", s.RLTEvictions}}
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
