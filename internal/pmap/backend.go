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
// the same end state), but its cycles are never charged: one RLT lookup
// (sim.CatRLT) is charged in their place. The pmap's one entry to the
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

// rltAssist performs the functional flush/purge and charges one
// reverse-lookup assist to sim.CatRLT instead of the operation's own
// cycles, which hardware would not spend. Memory, cache, and
// consistency state end exactly as under the software scheme; only the
// cost differs.
func (p *Pmap) rltAssist(c arch.CachePage, f arch.PFN, flush bool) {
	kind := trace.EvPurge
	if flush {
		kind = trace.EvFlush
		p.m.FlushDPage(c, f)
	} else {
		p.m.PurgeDPage(c, f)
	}
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
// but is charged to sim.CatRLTEvict so the tables show the cost of
// undersizing the structure.
func (p *Pmap) rltEvict(f arch.PFN) {
	p.rltEvicting = true
	p.cleanFrame(&p.phys[f], f, true)
	p.rltEvicting = false
	p.stats.RLTEvictions++
}
