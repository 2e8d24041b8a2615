// Package pmap is the machine-dependent layer of the simulated virtual
// memory system — the module the paper's Figure 1 code lives in.
//
// It owns the page tables, the physical page database (one record per
// frame holding the mapping list and the consistency state of Section 4),
// and the kernel preparation windows used to copy and zero pages. It is
// the only layer that issues cache flushes and purges, and it implements
// the core.Hardware and core.MappingTable interfaces the CacheControl
// algorithm is written against.
//
// Policy features (lazy unmap, page alignment, aligned preparation,
// need_data, will_overwrite — the paper's configurations A through F) and
// the Table 5 system variants (Tut, Sun) all live behind this layer's
// entry points.
package pmap

import (
	"fmt"
	"slices"

	"vcache/internal/arch"
	"vcache/internal/core"
	"vcache/internal/machine"
	"vcache/internal/mem"
	"vcache/internal/policy"
	"vcache/internal/sim"
	"vcache/internal/tlb"
	"vcache/internal/trace"
)

// NoVPN is the "no eventual mapping known" hint for page preparation.
const NoVPN = ^arch.VPN(0)

// MappingKind labels why a mapping exists; it only affects accounting
// and debugging, not consistency.
type MappingKind uint8

const (
	// KindUser is an ordinary user-space mapping.
	KindUser MappingKind = iota
	// KindWindow is a transient kernel preparation window.
	KindWindow
	// KindBuffer is a permanent kernel buffer-cache mapping.
	KindBuffer
	// KindText is a user text (instruction) mapping.
	KindText
)

func (k MappingKind) String() string {
	switch k {
	case KindUser:
		return "user"
	case KindWindow:
		return "window"
	case KindBuffer:
		return "buffer"
	case KindText:
		return "text"
	default:
		return fmt.Sprintf("MappingKind(%d)", uint8(k))
	}
}

// pte is a page-table entry, keyed by its own (space, vpn).
type pte struct {
	vpn        arch.VPN
	pfn        arch.PFN
	space      arch.SpaceID
	prot       arch.Prot // hardware protection currently in force
	maxProt    arch.Prot // ceiling imposed by the VM layer
	modified   bool      // page-modified bit (cleared when cache_dirty is cleared)
	referenced bool      // set on TLB refill; the page stealer's clock hand clears it
	uncached   bool      // Sun variant: bypass the cache
	live       bool      // false on a free record
}

// pteChunk is the number of records in one page-table chunk.
const pteChunk = 256

// pageTable holds every space's page-table entries inline in fixed-size
// chunks, so a record never moves: a *pte stays valid until its mapping
// is removed. Removed records are reused last in, first out. The index
// finds a record from its (space, vpn).
type pageTable struct {
	index  tlb.Index // (space, vpn) -> record number
	chunks [][]pte
	free   []int32 // removed record numbers
	n      int32   // records ever used
}

func (pt *pageTable) at(i int32) *pte { return &pt.chunks[i/pteChunk][i%pteChunk] }

// lookup returns the entry for (space, vpn), or nil.
func (pt *pageTable) lookup(space arch.SpaceID, vpn arch.VPN) *pte {
	if i := pt.index.Get(space, vpn); i >= 0 {
		return pt.at(i)
	}
	return nil
}

// insert stores e, whose key must not be present, and returns its record.
func (pt *pageTable) insert(e pte) *pte {
	var i int32
	if n := len(pt.free); n > 0 {
		i, pt.free = pt.free[n-1], pt.free[:n-1]
	} else {
		if int(pt.n) == len(pt.chunks)*pteChunk {
			pt.chunks = append(pt.chunks, make([]pte, pteChunk))
		}
		i, pt.n = pt.n, pt.n+1
	}
	pt.index.Put(e.space, e.vpn, i)
	r := pt.at(i)
	*r = e
	r.live = true
	return r
}

// remove deletes the entry for (space, vpn) and returns it.
func (pt *pageTable) remove(space arch.SpaceID, vpn arch.VPN) (e pte, ok bool) {
	i := pt.index.Delete(space, vpn)
	if i < 0 {
		return pte{}, false
	}
	r := pt.at(i)
	e, *r = *r, pte{}
	pt.free = append(pt.free, i)
	return e, true
}

// clone returns an independent copy whose chunks share one backing array.
func (pt *pageTable) clone() pageTable {
	recs := make([]pte, len(pt.chunks)*pteChunk)
	chunks := make([][]pte, len(pt.chunks))
	for c := range chunks {
		chunks[c] = recs[c*pteChunk : (c+1)*pteChunk : (c+1)*pteChunk]
		copy(chunks[c], pt.chunks[c])
	}
	return pageTable{pt.index.Clone(), chunks, slices.Clone(pt.free), pt.n}
}

// physPage is the per-frame record: the paper's P[p].
type physPage struct {
	state core.PageState // data-cache consistency state (Table 3)

	// Instruction-cache consistency state. The I-cache never holds
	// dirty data, so two bit vectors suffice: cache pages that may
	// hold (consistent) instructions from this frame, and cache pages
	// that may hold stale ones. Any write into the frame moves every
	// mapped I-cache page to stale.
	iMapped core.BitVec
	iStale  core.BitVec

	mappings []core.Mapping

	// lastVPN is the most recently removed mapping's page — the
	// "previous virtual address bound to that physical page" that
	// alignment decisions and the Tut equality test use.
	lastVPN arch.VPN
	hasLast bool

	uncached bool // Sun variant: frame is non-cacheable
	inRLT    bool // the RLT backend holds an entry for this frame
}

// Stats counts the events the paper's Table 4 reports.
type Stats struct {
	MappingFaults     uint64 // first touch of a page by a space
	ConsistencyFaults uint64 // protection traps taken only for consistency
	ModifyFaults      uint64 // first-write (TLB dirty bit) traps

	DFlushPages  uint64 // data-cache page flushes
	DFlushCycles uint64
	DPurgePages  uint64 // data-cache page purges
	DPurgeCycles uint64
	IPurgePages  uint64 // instruction-cache page purges
	IPurgeCycles uint64

	DMAReadFlushes   uint64 // flushes forced by DMA-read (device reads memory)
	DMAWritePurges   uint64 // purges forced by DMA-write (device writes memory)
	NewMappingPurges uint64 // purges taken on the first access after a new mapping
	DToICopies       uint64 // data-space to instruction-space page copies

	ZeroFills        uint64
	PageCopies       uint64
	AlignedAllocHits uint64 // colored free list handed out an aligned frame

	// RLT-VIVT backend counters.
	RLTAssists   uint64 // flush/purge work satisfied by a reverse-lookup assist
	RLTInserts   uint64 // synonym pages given an RLT entry
	RLTEvictions uint64 // capacity evictions forcing a software clean

	// The counters of a deleted backend (HYBRID): always zero. They stay
	// only so the JSON of a Result (vcachesim -json, the benchmark's
	// recorded result digests) keeps its bytes; nothing reads them.
	HybridUpdateSwitches uint64
	HybridReverts        uint64
}

// Pmap is the machine-dependent VM layer. It is not safe for concurrent
// use; the simulated kernel is single-threaded.
type Pmap struct {
	geom  arch.Geometry
	m     *machine.Machine
	alloc *mem.Allocator
	feat  policy.Features
	ctl   *core.Controller

	pt   pageTable
	phys []physPage

	windows    *windowPool
	prepCursor uint64 // first-fit color rotation for unaligned preparation

	// dColors and iColors are the actual cache-page (color) counts of
	// the machine's caches. For the direct-mapped HP 720 they equal the
	// geometry's counts; a set-associative cache has fewer colors
	// (associativity is invisible to software except through this).
	dColors uint64
	iColors uint64

	stats  Stats
	tracer *trace.Recorder // nil: tracing off
	cov    *core.Coverage  // nil: coverage collection off

	// accessIsNew and rltCPUOp attribute the flushes and purges of the
	// CacheControl run now in progress (see control): to a brand-new
	// mapping, for the Section 5.1 breakdown (~80% of purges stem from
	// new mappings), and to a CPU access an RLT may assist. Both are
	// false outside control.
	accessIsNew bool
	rltCPUOp    bool
	// rltEvicting is set while an RLT capacity eviction cleans its
	// victim frame, so the clean's flushes and purges charge
	// sim.CatRLTEvict (backend.go).
	rltEvicting bool

	// rlt is the reverse-lookup table occupancy under the RLT backend
	// (backend.go), FIFO over frames with live synonyms, each of which
	// has physPage.inRLT set.
	rlt []arch.PFN
}

// New creates the pmap over machine m with frame allocator alloc and the
// given policy features, and installs itself as the machine's page-table
// walker.
func New(m *machine.Machine, alloc *mem.Allocator, feat policy.Features) *Pmap {
	p := &Pmap{
		geom:  m.Geom,
		m:     m,
		alloc: alloc,
		feat:  feat,
		pt:    pageTable{index: tlb.NewIndex(pteChunk)},
		phys:  make([]physPage, m.Mem.Frames()),
	}
	p.dColors = m.DCache.CachePages()
	p.iColors = m.ICache.CachePages()
	p.ctl = core.NewController(p, p)
	p.windows = newWindowPool(p.geom)
	m.SetWalker(p)
	return p
}

// Features returns the active policy features.
func (p *Pmap) Features() policy.Features { return p.feat }

// SetTracer attaches an event recorder (nil turns tracing off).
func (p *Pmap) SetTracer(r *trace.Recorder) { p.tracer = r }

// SetCoverage attaches a Table 2 consistency-state coverage map (nil
// detaches). Like the tracer it is per-run state: Clone does not carry
// it, and the harness attaches it after any snapshot fork.
func (p *Pmap) SetCoverage(cv *core.Coverage) { p.cov = cv }

// control runs the CacheControl algorithm for frame f; every pmap call
// goes through here. newMapping attributes the purges it issues to a
// new mapping (the Section 5.1 breakdown), and cpuOp marks its flushes
// and purges as driven by a CPU access, which an RLT may assist.
func (p *Pmap) control(f arch.PFN, c arch.CachePage, op core.Operation, opts core.Options, newMapping, cpuOp bool) {
	p.accessIsNew, p.rltCPUOp = newMapping, cpuOp
	p.ctl.CacheControl(f, &p.phys[f].state, c, op, opts)
	p.accessIsNew, p.rltCPUOp = false, false
}

// observe records the Table 2 cells one consistency-algorithm
// invocation exercises, from frame f's pre-transition state. It must
// run before the transition is applied.
func (p *Pmap) observe(op core.Operation, f arch.PFN, c arch.CachePage) {
	if p.cov == nil {
		return
	}
	p.cov.Observe(op, &p.phys[f].state, c, p.dColors)
}

// emit records a trace event, stamping the current cycle count.
func (p *Pmap) emit(kind trace.Kind, f arch.PFN, c arch.CachePage, note string) {
	if p.tracer == nil {
		return
	}
	p.tracer.Record(trace.Event{Cycles: p.m.Clock.Cycles(), Kind: kind, Frame: f, Color: c, Note: note})
}

// Stats returns a snapshot of the counters, merging in the CacheControl
// algorithm's cause attribution for DMA-forced operations.
func (p *Pmap) Stats() Stats {
	s := p.stats
	cs := p.ctl.Stats()
	s.DMAReadFlushes = cs.DMAReadFlushes
	s.DMAWritePurges = cs.DMAWritePurges
	return s
}

// ControllerStats returns the CacheControl algorithm's own counters.
func (p *Pmap) ControllerStats() core.Stats { return p.ctl.Stats() }

// PageState returns a copy of frame f's consistency state (for tests and
// invariant checks).
func (p *Pmap) PageState(f arch.PFN) core.PageState { return p.phys[f].state }

// CheckInvariants verifies the Table 3 encoding invariants on every
// frame. Tests call it between workload steps.
func (p *Pmap) CheckInvariants() error {
	for f := range p.phys {
		if err := p.phys[f].state.CheckInvariants(); err != nil {
			return fmt.Errorf("frame %d: %w", f, err)
		}
	}
	return nil
}

// Walk implements tlb.Walker: the hardware page-table walk.
func (p *Pmap) Walk(space arch.SpaceID, vpn arch.VPN) (tlb.Entry, bool) {
	e := p.pt.lookup(space, vpn)
	if e == nil {
		return tlb.Entry{}, false
	}
	// The hardware TLB refill records a reference, as PA-RISC's
	// software-managed TLB does; the page stealer reads and clears it.
	e.referenced = true
	return tlb.Entry{
		PFN:         e.pfn,
		Prot:        e.prot,
		NeedModTrap: e.prot == arch.ProtReadWrite && !e.modified,
		Uncached:    e.uncached,
	}, true
}

// dcolor returns the data-cache color of a virtual page.
func (p *Pmap) dcolor(vpn arch.VPN) arch.CachePage { return arch.CachePage(uint64(vpn) % p.dColors) }

// icolor returns the instruction-cache color of a virtual page.
func (p *Pmap) icolor(vpn arch.VPN) arch.CachePage {
	return arch.CachePage(uint64(vpn) % p.iColors)
}

// charge charges a consistency operation's cycles once: to cat, or to
// sim.CatRLTEvict while an RLT capacity eviction cleans its victim. The
// pmap is the one layer that issues cache flushes and purges, and so
// the one that charges them.
func (p *Pmap) charge(cat sim.Category, cycles uint64) {
	if p.rltEvicting {
		cat = sim.CatRLTEvict
	}
	p.m.Clock.Charge(cat, cycles)
}

// FlushCachePage implements core.Hardware: flush frame f's lines from
// data-cache page c, metering cycles. Under the RLT backend a
// CPU-driven flush of a covered frame becomes a reverse-lookup assist
// (backend.go).
func (p *Pmap) FlushCachePage(c arch.CachePage, f arch.PFN) {
	if p.rltAssisted(f) {
		p.rltAssist(c, f, true)
		return
	}
	cycles := p.m.FlushDPage(c, f)
	p.charge(sim.CatFlush, cycles)
	p.stats.DFlushPages++
	p.stats.DFlushCycles += cycles
	p.emit(trace.EvFlush, f, c, "")
}

// PurgeCachePage implements core.Hardware: purge frame f's lines from
// data-cache page c, metering cycles. Under the RLT backend a
// CPU-driven purge of a covered frame becomes a reverse-lookup assist.
func (p *Pmap) PurgeCachePage(c arch.CachePage, f arch.PFN) {
	if p.rltAssisted(f) {
		p.rltAssist(c, f, false)
		return
	}
	cycles := p.m.PurgeDPage(c, f)
	p.charge(sim.CatPurge, cycles)
	p.stats.DPurgePages++
	p.stats.DPurgeCycles += cycles
	if p.accessIsNew {
		p.stats.NewMappingPurges++
		p.emit(trace.EvPurge, f, c, "new-mapping")
	} else {
		p.emit(trace.EvPurge, f, c, "")
	}
}

// purgeICachePage purges frame f's lines from instruction-cache page c.
func (p *Pmap) purgeICachePage(c arch.CachePage, f arch.PFN) {
	cycles := p.m.PurgeIPage(c, f)
	p.charge(sim.CatPurge, cycles)
	p.stats.IPurgePages++
	p.stats.IPurgeCycles += cycles
	p.emit(trace.EvIPurge, f, c, "")
}

// Mappings implements core.MappingTable.
func (p *Pmap) Mappings(f arch.PFN) []core.Mapping {
	return p.phys[f].mappings
}

// SetProtection implements core.MappingTable: set the hardware
// protection of mapping m, clamped to the VM layer's ceiling, with the
// required TLB invalidation.
func (p *Pmap) SetProtection(m core.Mapping, prot arch.Prot) {
	e := p.pt.lookup(m.Space, m.VPN)
	if e == nil {
		return
	}
	if prot > e.maxProt {
		prot = e.maxProt
	}
	if e.prot != prot {
		e.prot = prot
		p.m.InvalidateTLB(m.Space, m.VPN)
	}
}

// ClearModified implements core.MappingTable: clear the page-modified
// bookkeeping for every mapping of frame f on cache page c so the next
// store re-traps and cache_dirty can be re-established.
func (p *Pmap) ClearModified(f arch.PFN, c arch.CachePage) {
	for _, m := range p.phys[f].mappings {
		if m.CachePage != c {
			continue
		}
		e := p.pt.lookup(m.Space, m.VPN)
		if e != nil && e.modified {
			e.modified = false
			p.m.InvalidateTLB(m.Space, m.VPN)
		}
	}
}

// chargeBookkeeping charges n cycles of kernel bookkeeping time.
func (p *Pmap) chargeBookkeeping(n uint64) {
	p.m.Clock.Charge(sim.CatFault, n)
}

// ResetStats zeroes the pmap and CacheControl counters (harnesses call
// this after workload setup so measurements cover only the timed phase).
func (p *Pmap) ResetStats() {
	p.stats = Stats{}
	p.ctl.ResetStats()
}
