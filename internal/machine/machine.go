// Package machine assembles the simulated hardware: CPU access paths
// through the split instruction/data caches, the TLB, physical memory,
// and the DMA port. It delivers the faults the operating system's
// consistency algorithm lives on: mapping faults, protection faults, and
// modify (first-write) faults.
//
// The machine models the HP 9000 Series 700 of the paper:
//
//   - separate instruction and data caches, both direct mapped,
//     virtually indexed, physically tagged; the data cache is write-back;
//   - no hardware support for consistency when a physical address is
//     represented in more than one cache line;
//   - DMA devices read and write physical memory without snooping the
//     caches;
//   - a TLB translating virtual page frames in parallel with cache
//     lookup.
package machine

import (
	"fmt"
	"math/bits"

	"vcache/internal/arch"
	"vcache/internal/cache"
	"vcache/internal/mem"
	"vcache/internal/oracle"
	"vcache/internal/sim"
	"vcache/internal/tlb"
	"vcache/internal/trace"
)

// Access is the kind of CPU reference that faulted or is being made.
type Access uint8

const (
	// AccessRead is a data load.
	AccessRead Access = iota
	// AccessWrite is a data store.
	AccessWrite
	// AccessExecute is an instruction fetch.
	AccessExecute
)

func (a Access) String() string {
	switch a {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	default:
		return "execute"
	}
}

// FaultKind classifies a trap.
type FaultKind uint8

const (
	// FaultMapping: no translation exists for the page.
	FaultMapping FaultKind = iota
	// FaultProtection: the translation exists but denies the access.
	FaultProtection
	// FaultModify: first write through a translation whose page-table
	// entry has not recorded a modification (the PA-RISC TLB dirty-bit
	// trap). The paper's implementation uses it to set cache_dirty
	// without a full protection fault on every store.
	FaultModify
)

func (k FaultKind) String() string {
	switch k {
	case FaultMapping:
		return "mapping"
	case FaultProtection:
		return "protection"
	default:
		return "modify"
	}
}

// Fault describes one trap delivered to the kernel.
type Fault struct {
	Space  arch.SpaceID
	VA     arch.VA
	Access Access
	Kind   FaultKind
}

func (f Fault) Error() string {
	return fmt.Sprintf("%s fault: space %d va %#x (%s)", f.Kind, f.Space, uint64(f.VA), f.Access)
}

// FaultHandler is the kernel's trap entry point. Returning an error
// aborts the faulting access (the simulated program dies); returning nil
// means the access should be retried.
type FaultHandler interface {
	HandleFault(f Fault) error
}

// Stats counts machine-level events.
type Stats struct {
	Reads        uint64
	Writes       uint64
	Fetches      uint64
	Faults       uint64
	DMAWrites    uint64 // device-to-memory transfers
	DMAReads     uint64 // memory-to-device transfers
	DMAWords     uint64
	FaultsByKind [3]uint64
}

// CPU is one processor context: its private caches and TLB. On the
// paper's uniprocessor there is exactly one; the Section 3.3
// multiprocessor extension instantiates several, with the hardware
// keeping *aligned* copies coherent (the "distributed set-associative
// cache" view) while unaligned aliases remain software's problem.
type CPU struct {
	DCache *cache.Cache
	ICache *cache.Cache
	TLB    *tlb.TLB
}

// Machine is the simulated hardware. It is not safe for concurrent use;
// multiprocessor execution is modeled as the interleaving the (single
// threaded) kernel produces by switching the current CPU.
type Machine struct {
	Geom   arch.Geometry
	Mem    *mem.Memory
	Clock  *sim.Clock
	Oracle *oracle.Oracle // may be nil (checking disabled)

	// DCache, ICache and TLB are CPU 0's, kept as fields for the
	// common uniprocessor case and for test inspection.
	DCache *cache.Cache
	ICache *cache.Cache
	TLB    *tlb.TLB

	cpus    []CPU
	current int

	walker  tlb.Walker
	handler FaultHandler
	stats   Stats

	// tracer, when non-nil, receives one EvDMAMove event per device
	// transfer. Recording is pure observation: it never alters stats,
	// cycle charges, or which data path a transfer takes, so a traced
	// run's Result is identical to an untraced one.
	tracer *trace.Recorder

	// maxRetries bounds the fault-retry loop so kernel bugs surface as
	// errors instead of livelock.
	maxRetries int

	// noFast disables the bulk page, strided run and DMA paths, for
	// benchmarking the overhead they remove and for identity tests that
	// pit the fast paths against the word-at-a-time reference.
	noFast bool
}

// Config sizes a machine.
type Config struct {
	Geometry   arch.Geometry
	Frames     int // physical memory size in frames
	TLBSize    int // entries
	DCacheWays int // 1 = direct mapped (the paper's machine)
	ICacheWays int
	// CPUs is the processor count; 1 (the default) is the paper's
	// machine. With more, each CPU gets private caches and a TLB, and
	// the simulated hardware keeps aligned copies coherent.
	CPUs           int
	DCachePolicy   cache.WritePolicy
	DCacheIndexing cache.Indexing
	// ICachePerLinePurge disables the 720's constant-time
	// instruction-cache page purge, making I-purges pay per line like
	// the data cache (an ablation of the paper's Section 5 artifact).
	ICachePerLinePurge bool
	WithOracle         bool
	Timing             sim.Timing
	// DisableFastPaths forces every page loop and DMA transfer through
	// the word-at-a-time reference pipeline: no bulk zero or copy (the
	// pmap's zero-fill and page copy, the file system's buffer zeroing,
	// the read(2)/write(2) copy), no strided run batching (the kernel's
	// heap, text, mapped-page and file-content loops and the Unix
	// server's channel exchange), and no DMA word-range moves. It alone
	// selects that pipeline; the fast paths are observation-identical, so
	// it exists only for benchmarking them and the identity tests.
	DisableFastPaths bool
}

// DefaultConfig returns an HP 720-shaped machine with the oracle enabled.
func DefaultConfig() Config {
	return Config{
		Geometry:       arch.HP720(),
		Frames:         4096, // 16 MiB
		TLBSize:        96,
		DCacheWays:     1,
		ICacheWays:     1,
		DCachePolicy:   cache.WriteBack,
		DCacheIndexing: cache.VirtualIndex,
		WithOracle:     true,
		Timing:         sim.HP720Timing(),
	}
}

// Size limits of a simulated machine. Every way a size reaches the
// simulator — flags, /run requests, replay programs — ends in New, and
// past these limits a run exhausts host memory before it produces a
// result: building a kernel costs about 0.7 MB per CPU (caches and TLB)
// and about 195 MB at MaxFrames.
const (
	MaxCPUs   = 64
	MaxFrames = 1 << 20
)

// CheckSize rejects a processor or frame count outside the size limits.
// Zero passes for both: it stands for the default size.
func CheckSize(cpus, frames int) error {
	if cpus < 0 || cpus > MaxCPUs {
		return fmt.Errorf("cpus must be between 1 and %d, got %d", MaxCPUs, cpus)
	}
	if frames < 0 || frames > MaxFrames {
		return fmt.Errorf("frames must be between 0 and %d, got %d", MaxFrames, frames)
	}
	return nil
}

// New builds a machine.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Geometry.Validate(); err != nil {
		return nil, err
	}
	if err := CheckSize(cfg.CPUs, cfg.Frames); err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	clock := sim.NewClock(cfg.Timing)
	pm, err := mem.New(cfg.Geometry, cfg.Frames)
	if err != nil {
		return nil, err
	}
	if cfg.DCacheWays == 0 {
		cfg.DCacheWays = 1
	}
	if cfg.ICacheWays == 0 {
		cfg.ICacheWays = 1
	}
	if cfg.CPUs == 0 {
		cfg.CPUs = 1
	}
	m := &Machine{
		Geom:       cfg.Geometry,
		Mem:        pm,
		Clock:      clock,
		maxRetries: 16,
		noFast:     cfg.DisableFastPaths,
	}
	for i := 0; i < cfg.CPUs; i++ {
		dc, err := cache.New(cache.Config{
			Name:     fmt.Sprintf("dcache%d", i),
			Size:     cfg.Geometry.DCacheSize,
			Indexing: cfg.DCacheIndexing,
			Policy:   cfg.DCachePolicy,
			Ways:     cfg.DCacheWays,
		}, pm, clock)
		if err != nil {
			return nil, err
		}
		ic, err := cache.New(cache.Config{
			Name:              fmt.Sprintf("icache%d", i),
			Size:              cfg.Geometry.ICacheSize,
			Indexing:          cache.VirtualIndex,
			Policy:            cache.WriteBack, // never written; policy moot
			Ways:              cfg.ICacheWays,
			ReadOnly:          true,
			ConstantPagePurge: !cfg.ICachePerLinePurge,
		}, pm, clock)
		if err != nil {
			return nil, err
		}
		m.cpus = append(m.cpus, CPU{DCache: dc, ICache: ic, TLB: tlb.New(cfg.TLBSize, clock)})
	}
	m.DCache = m.cpus[0].DCache
	m.ICache = m.cpus[0].ICache
	m.TLB = m.cpus[0].TLB
	if cfg.WithOracle {
		m.Oracle = oracle.New(int(uint64(cfg.Frames) * cfg.Geometry.WordsPerPage()))
	}
	return m, nil
}

// Clone returns an independent copy of the machine: memory forks
// copy-on-write (see mem.Fork), caches, TLBs, clock, oracle and stats
// copy deeply. The walker, fault handler and tracer are deliberately NOT
// carried over — they point into the kernel and observation stack of the
// original run, and the caller (kernel.Clone) rewires them to the fork's
// own instances. In particular the tracer must be reattached per fork:
// serializing it into the image would leak one run's events into the
// shared snapshot and its sibling forks.
func (m *Machine) Clone() *Machine {
	m2 := *m
	m2.Mem = m.Mem.Fork()
	m2.Clock = m.Clock.Clone()
	m2.Oracle = m.Oracle.Clone()
	m2.walker = nil
	m2.handler = nil
	m2.tracer = nil
	m2.cpus = make([]CPU, len(m.cpus))
	for i := range m.cpus {
		c := m.cpus[i]
		c.DCache = c.DCache.Clone(m2.Mem, m2.Clock)
		c.ICache = c.ICache.Clone(m2.Mem, m2.Clock)
		c.TLB = c.TLB.Clone(m2.Clock)
		m2.cpus[i] = c
	}
	m2.DCache = m2.cpus[0].DCache
	m2.ICache = m2.cpus[0].ICache
	m2.TLB = m2.cpus[0].TLB
	return &m2
}

// Freeze marks the machine's memory as an immutable snapshot image so
// Clone may be called concurrently (see mem.Freeze). A frozen machine
// must not execute further accesses.
func (m *Machine) Freeze() { m.Mem.Freeze() }

// SetWalker installs the page-table walker (the pmap layer).
func (m *Machine) SetWalker(w tlb.Walker) { m.walker = w }

// SetFaultHandler installs the kernel trap handler.
func (m *Machine) SetFaultHandler(h FaultHandler) { m.handler = h }

// SetTracer attaches an event recorder to the DMA port (nil turns
// tracing off). The harness points it at the same recorder as the
// pmap's tracer, so one ring holds the interleaved consistency-work and
// data-movement history of a run.
func (m *Machine) SetTracer(r *trace.Recorder) { m.tracer = r }

// emitDMA records one device transfer.
func (m *Machine) emitDMA(pa arch.PA, words int, dir string) {
	if m.tracer == nil {
		return
	}
	m.tracer.Record(trace.Event{
		Cycles: m.Clock.Cycles(),
		Kind:   trace.EvDMAMove,
		Frame:  m.Geom.FrameOf(pa),
		Color:  arch.NoCachePage,
		Note:   fmt.Sprintf("%s %dw", dir, words),
	})
}

// Stats returns a snapshot of the machine counters.
func (m *Machine) Stats() Stats { return m.stats }

// NumCPUs returns the processor count.
func (m *Machine) NumCPUs() int { return len(m.cpus) }

// SetCurrentCPU selects which processor subsequent accesses run on (the
// kernel's context switch). An out-of-range index panics: silently
// clamping to CPU 0 used to mask scheduler bugs (work charged to the
// wrong processor with no symptom). The kernel validates indices at its
// boundary (Migrate), so a panic here is always a simulator bug.
func (m *Machine) SetCurrentCPU(i int) {
	if i < 0 || i >= len(m.cpus) {
		panic(fmt.Sprintf("machine: SetCurrentCPU(%d) out of range [0,%d)", i, len(m.cpus)))
	}
	m.current = i
}

// CurrentCPU returns the executing processor index.
func (m *Machine) CurrentCPU() int { return m.current }

// cpu returns the current CPU context.
func (m *Machine) cpu() *CPU { return &m.cpus[m.current] }

// peers returns the set of peer CPUs — bit i for CPU i, which MaxCPUs
// keeps within a uint64 — whose data cache holds any line of the frame
// containing pa. One set serves a whole run of the current CPU's
// accesses to the frame (bulk.go says why).
func (m *Machine) peers(pa arch.PA) uint64 {
	var set uint64
	if len(m.cpus) > 1 {
		f := m.Geom.FrameOf(pa)
		for i := range m.cpus {
			if i != m.current && m.cpus[i].DCache.Holds(f) {
				set |= 1 << i
			}
		}
	}
	return set
}

// snoop is the coherence hardware: for each of n consecutive lines from
// (va, pa), every peer in set services the current CPU's access of the
// aligned line — a read (a dirty copy is written back so the reader's
// fill sees current data) or, when invalidate is set, a write (every
// copy is written back if dirty and dropped, giving the writer
// exclusive ownership). Unaligned aliases select other sets and are
// untouched: they remain the software's problem.
func (m *Machine) snoop(set uint64, va arch.VA, pa arch.PA, n uint64, invalidate bool) {
	cur := m.cpu().DCache
	for ; set != 0 && n > 0; n-- {
		si, tag := cur.AccessIndex(va, pa), cur.Tag(pa)
		for s := set; s != 0; s &= s - 1 {
			dc := m.cpus[bits.TrailingZeros64(s)].DCache
			if invalidate {
				dc.SnoopInvalidate(si, tag)
			} else {
				dc.SnoopRead(si, tag)
			}
		}
		va += arch.VA(m.Geom.LineSize)
		pa += arch.PA(m.Geom.LineSize)
	}
}

// Broadcast cache-control and TLB operations: the kernel's flush, purge
// and shootdown primitives act on every CPU (modeling the IPI-based
// shootdowns a multiprocessor kernel performs; on one CPU they reduce to
// the plain operations).

// FlushDPage flushes frame f's lines from data-cache page cp on every
// CPU and returns the cycles summed over the CPUs, uncharged: the pmap
// charges them.
func (m *Machine) FlushDPage(cp arch.CachePage, f arch.PFN) (cycles uint64) {
	for i := range m.cpus {
		cycles += m.cpus[i].DCache.FlushPage(cp, f)
	}
	return cycles
}

// PurgeDPage purges frame f's lines from data-cache page cp on every CPU
// and returns the cycles summed over the CPUs, uncharged.
func (m *Machine) PurgeDPage(cp arch.CachePage, f arch.PFN) (cycles uint64) {
	for i := range m.cpus {
		cycles += m.cpus[i].DCache.PurgePage(cp, f)
	}
	return cycles
}

// PurgeIPage purges frame f's lines from instruction-cache page cp on
// every CPU and returns the cycles summed over the CPUs, uncharged.
func (m *Machine) PurgeIPage(cp arch.CachePage, f arch.PFN) (cycles uint64) {
	for i := range m.cpus {
		cycles += m.cpus[i].ICache.PurgePage(cp, f)
	}
	return cycles
}

// InvalidateTLB drops (space, vpn) from every CPU's TLB.
func (m *Machine) InvalidateTLB(space arch.SpaceID, vpn arch.VPN) {
	for i := range m.cpus {
		m.cpus[i].TLB.InvalidatePage(space, vpn)
	}
}

// ShootdownSpace drops every translation of the given address space from
// CPU i's TLB — the migration shootdown the kernel sends to the CPU a
// process is leaving. The single IPI is charged like any other trap.
func (m *Machine) ShootdownSpace(i int, space arch.SpaceID) {
	if i < 0 || i >= len(m.cpus) {
		panic(fmt.Sprintf("machine: ShootdownSpace(%d) out of range [0,%d)", i, len(m.cpus)))
	}
	m.cpus[i].TLB.InvalidateSpace(space)
	m.Clock.Charge(sim.CatFault, m.Clock.Timing().FaultTrap)
}

// translate resolves (space, va) for the given access, faulting to the
// kernel until the access is permitted. It returns the physical address
// and whether the translation is marked uncacheable.
func (m *Machine) translate(space arch.SpaceID, va arch.VA, acc Access) (arch.PA, bool, error) {
	if m.walker == nil {
		return 0, false, fmt.Errorf("machine: no page-table walker installed")
	}
	vpn := m.Geom.PageOf(va)
	for try := 0; try <= m.maxRetries; try++ {
		// Re-resolve the CPU each retry: the fault handler may context
		// switch.
		e, ok := m.cpu().TLB.Lookup(space, vpn, m.walker)
		var kind FaultKind
		switch {
		case !ok:
			kind = FaultMapping
		case acc == AccessWrite && !e.Prot.CanWrite():
			kind = FaultProtection
		case acc != AccessWrite && !e.Prot.CanRead():
			kind = FaultProtection
		case acc == AccessWrite && e.NeedModTrap:
			kind = FaultModify
		default:
			return m.Geom.Translate(va, e.PFN), e.Uncached, nil
		}
		f := Fault{Space: space, VA: va, Access: acc, Kind: kind}
		m.stats.Faults++
		m.stats.FaultsByKind[kind]++
		m.Clock.Charge(sim.CatFault, m.Clock.Timing().FaultTrap)
		if m.handler == nil {
			return 0, false, f
		}
		if err := m.handler.HandleFault(f); err != nil {
			return 0, false, fmt.Errorf("unresolved %s: %w", f.Error(), err)
		}
	}
	return 0, false, fmt.Errorf("machine: fault livelock at space %d va %#x (%s)", space, uint64(va), acc)
}

// Read performs a data load, faulting to the kernel as needed, and
// verifies the delivered value against the oracle.
func (m *Machine) Read(space arch.SpaceID, va arch.VA) (uint64, error) {
	m.stats.Reads++
	pa, uncached, err := m.translate(space, va, AccessRead)
	if err != nil {
		return 0, err
	}
	var v uint64
	if uncached {
		m.Clock.Charge(sim.CatAccess, m.Clock.Timing().CacheHit+m.Clock.Timing().CacheMissFill)
		v = m.Mem.ReadWord(pa)
	} else {
		if set := m.peers(pa); set != 0 {
			m.snoop(set, va, pa, 1, false)
		}
		v = m.cpu().DCache.Read(va, pa)
	}
	m.Oracle.Observe(oracle.CPURead, pa, v)
	return v, nil
}

// Write performs a data store, faulting to the kernel as needed.
func (m *Machine) Write(space arch.SpaceID, va arch.VA, v uint64) error {
	m.stats.Writes++
	pa, uncached, err := m.translate(space, va, AccessWrite)
	if err != nil {
		return err
	}
	m.Oracle.RecordWrite(pa, v)
	if uncached {
		m.Clock.Charge(sim.CatAccess, m.Clock.Timing().CacheHit+m.Clock.Timing().WriteBack)
		m.Mem.WriteWord(pa, v)
	} else {
		if set := m.peers(pa); set != 0 {
			m.snoop(set, va, pa, 1, true)
		}
		m.cpu().DCache.Write(va, pa, v)
	}
	return nil
}

// Fetch performs an instruction fetch through the instruction cache.
func (m *Machine) Fetch(space arch.SpaceID, va arch.VA) (uint64, error) {
	m.stats.Fetches++
	pa, uncached, err := m.translate(space, va, AccessExecute)
	if err != nil {
		return 0, err
	}
	var v uint64
	if uncached {
		m.Clock.Charge(sim.CatAccess, m.Clock.Timing().CacheHit+m.Clock.Timing().CacheMissFill)
		v = m.Mem.ReadWord(pa)
	} else {
		v = m.cpu().ICache.Read(va, pa)
	}
	m.Oracle.Observe(oracle.CPUFetch, pa, v)
	return v, nil
}

// DMAWrite transfers data from a device into physical memory, bypassing
// the caches entirely (the Series 700's I/O does not snoop).
// The kernel must have run the consistency algorithm beforehand.
func (m *Machine) DMAWrite(pa arch.PA, data []uint64) {
	m.stats.DMAWrites++
	m.stats.DMAWords += uint64(len(data))
	m.emitDMA(pa, len(data), "write")
	t := m.Clock.Timing()
	m.Clock.Charge(sim.CatDMA, t.DMASetup+t.DMAPerWord*uint64(len(data)))
	if !m.noFast {
		m.Oracle.RecordWrites(pa, data)
		m.Mem.WriteWords(pa, data)
		return
	}
	for i, v := range data {
		addr := pa + arch.PA(i*arch.WordSize)
		m.Oracle.RecordWrite(addr, v)
		m.Mem.WriteWord(addr, v)
	}
}

// DMARead transfers n words from physical memory to a device, bypassing
// the caches; the oracle verifies the device receives current data.
func (m *Machine) DMARead(pa arch.PA, n int) []uint64 {
	m.stats.DMAReads++
	m.stats.DMAWords += uint64(n)
	m.emitDMA(pa, n, "read")
	t := m.Clock.Timing()
	m.Clock.Charge(sim.CatDMA, t.DMASetup+t.DMAPerWord*uint64(n))
	out := make([]uint64, n)
	if !m.noFast {
		m.Mem.ReadWords(pa, out)
		m.Oracle.ObserveWords(oracle.DeviceRead, pa, out)
		return out
	}
	for i := range out {
		addr := pa + arch.PA(i*arch.WordSize)
		out[i] = m.Mem.ReadWord(addr)
		m.Oracle.Observe(oracle.DeviceRead, addr, out[i])
	}
	return out
}

// ResetStats zeroes the machine counters.
func (m *Machine) ResetStats() { m.stats = Stats{} }
