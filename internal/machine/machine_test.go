package machine

import (
	"errors"
	"testing"

	"vcache/internal/arch"
	"vcache/internal/cache"
	"vcache/internal/tlb"
)

// tableWalker is a mutable page table for driving the machine directly.
type tableWalker struct {
	entries map[arch.VPN]tlb.Entry
}

func (w *tableWalker) Walk(space arch.SpaceID, vpn arch.VPN) (tlb.Entry, bool) {
	e, ok := w.entries[vpn]
	return e, ok
}

// recordHandler records faults and optionally fixes them.
type recordHandler struct {
	faults []Fault
	fix    func(Fault) error
}

func (h *recordHandler) HandleFault(f Fault) error {
	h.faults = append(h.faults, f)
	if h.fix != nil {
		return h.fix(f)
	}
	return errors.New("unhandled")
}

func newMachine(t *testing.T) (*Machine, *tableWalker) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Frames = 64
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := &tableWalker{entries: make(map[arch.VPN]tlb.Entry)}
	m.SetWalker(w)
	return m, w
}

func TestReadWriteRoundTrip(t *testing.T) {
	m, w := newMachine(t)
	w.entries[5] = tlb.Entry{PFN: 7, Prot: arch.ProtReadWrite}
	va := m.Geom.PageBase(5) + 16
	if err := m.Write(1, va, 0xBEEF); err != nil {
		t.Fatal(err)
	}
	v, err := m.Read(1, va)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xBEEF {
		t.Fatalf("read %#x", v)
	}
	if len(m.Oracle.Violations()) != 0 {
		t.Error("oracle flagged a fresh read")
	}
}

func TestMappingFaultDelivered(t *testing.T) {
	m, w := newMachine(t)
	h := &recordHandler{fix: func(f Fault) error {
		w.entries[m.Geom.PageOf(f.VA)] = tlb.Entry{PFN: 3, Prot: arch.ProtReadWrite}
		return nil
	}}
	m.SetFaultHandler(h)
	if _, err := m.Read(1, 0x9000); err != nil {
		t.Fatal(err)
	}
	if len(h.faults) != 1 || h.faults[0].Kind != FaultMapping || h.faults[0].Access != AccessRead {
		t.Fatalf("faults = %v", h.faults)
	}
}

func TestProtectionFaultDelivered(t *testing.T) {
	m, w := newMachine(t)
	w.entries[2] = tlb.Entry{PFN: 2, Prot: arch.ProtRead}
	h := &recordHandler{fix: func(f Fault) error {
		w.entries[2] = tlb.Entry{PFN: 2, Prot: arch.ProtReadWrite}
		m.TLB.InvalidatePage(f.Space, 2)
		return nil
	}}
	m.SetFaultHandler(h)
	if err := m.Write(1, m.Geom.PageBase(2), 1); err != nil {
		t.Fatal(err)
	}
	if len(h.faults) != 1 || h.faults[0].Kind != FaultProtection || h.faults[0].Access != AccessWrite {
		t.Fatalf("faults = %v", h.faults)
	}
	// ProtNone denies reads too.
	w.entries[3] = tlb.Entry{PFN: 3, Prot: arch.ProtNone}
	h.fix = func(f Fault) error {
		w.entries[3] = tlb.Entry{PFN: 3, Prot: arch.ProtRead}
		m.TLB.InvalidatePage(f.Space, 3)
		return nil
	}
	if _, err := m.Read(1, m.Geom.PageBase(3)); err != nil {
		t.Fatal(err)
	}
	if h.faults[len(h.faults)-1].Kind != FaultProtection {
		t.Error("no-access read did not raise a protection fault")
	}
}

func TestModifyFaultDelivered(t *testing.T) {
	m, w := newMachine(t)
	w.entries[4] = tlb.Entry{PFN: 4, Prot: arch.ProtReadWrite, NeedModTrap: true}
	h := &recordHandler{fix: func(f Fault) error {
		w.entries[4] = tlb.Entry{PFN: 4, Prot: arch.ProtReadWrite}
		m.TLB.InvalidatePage(f.Space, 4)
		return nil
	}}
	m.SetFaultHandler(h)
	// Reads do not trip the modify trap.
	if _, err := m.Read(1, m.Geom.PageBase(4)); err != nil {
		t.Fatal(err)
	}
	if len(h.faults) != 0 {
		t.Fatal("read tripped the modify trap")
	}
	if err := m.Write(1, m.Geom.PageBase(4), 9); err != nil {
		t.Fatal(err)
	}
	if len(h.faults) != 1 || h.faults[0].Kind != FaultModify {
		t.Fatalf("faults = %v", h.faults)
	}
}

func TestFaultLivelockBounded(t *testing.T) {
	m, _ := newMachine(t)
	h := &recordHandler{fix: func(Fault) error { return nil }} // "fixes" nothing
	m.SetFaultHandler(h)
	if _, err := m.Read(1, 0x1000); err == nil {
		t.Fatal("unresolvable fault did not error")
	}
	if len(h.faults) < 2 {
		t.Error("machine gave up after a single retry")
	}
}

func TestNoHandlerErrors(t *testing.T) {
	m, _ := newMachine(t)
	if _, err := m.Read(1, 0x1000); err == nil {
		t.Error("fault with no handler should error")
	}
}

func TestUncachedBypassesCache(t *testing.T) {
	m, w := newMachine(t)
	w.entries[6] = tlb.Entry{PFN: 6, Prot: arch.ProtReadWrite, Uncached: true}
	va := m.Geom.PageBase(6)
	if err := m.Write(1, va, 77); err != nil {
		t.Fatal(err)
	}
	if m.Mem.ReadWord(m.Geom.FrameBase(6)) != 77 {
		t.Error("uncached write did not reach memory")
	}
	if present, _ := m.DCache.Present(m.Geom.FrameBase(6)); present {
		t.Error("uncached access allocated a cache line")
	}
	v, err := m.Read(1, va)
	if err != nil || v != 77 {
		t.Fatalf("uncached read = %d, %v", v, err)
	}
}

// TestUnalignedAliasGoesStale reproduces the paper's core hazard on the
// bare machine: with no OS-level consistency management, writes through
// one alias are invisible through an unaligned one, and write-backs can
// clobber newer data. The oracle flags both.
func TestUnalignedAliasGoesStale(t *testing.T) {
	m, w := newMachine(t)
	w.entries[0x10] = tlb.Entry{PFN: 9, Prot: arch.ProtReadWrite}
	w.entries[0x11] = tlb.Entry{PFN: 9, Prot: arch.ProtReadWrite}
	va1, va2 := m.Geom.PageBase(0x10), m.Geom.PageBase(0x11)

	// Bring both copies into the cache, then diverge them.
	if _, err := m.Read(1, va1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Read(1, va2); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(1, va1, 1234); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Read(1, va2); err != nil {
		t.Fatal(err)
	}
	if len(m.Oracle.Violations()) == 0 {
		t.Fatal("stale alias read not detected")
	}
}

// TestWriteThroughAliasStillStale verifies the Section 3.3 observation
// that write-through only removes the dirty state: a cached unaligned
// alias still goes stale on a write through the other address.
func TestWriteThroughAliasStillStale(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Frames = 64
	cfg.DCachePolicy = cache.WriteThrough
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := &tableWalker{entries: map[arch.VPN]tlb.Entry{
		0x20: {PFN: 8, Prot: arch.ProtReadWrite},
		0x21: {PFN: 8, Prot: arch.ProtReadWrite},
	}}
	m.SetWalker(w)
	va1, va2 := m.Geom.PageBase(0x20), m.Geom.PageBase(0x21)
	m.Read(1, va2)      // cache the alias
	m.Write(1, va1, 55) // memory updated, but va2's line is now stale
	m.Read(1, va2)
	if len(m.Oracle.Violations()) == 0 {
		t.Fatal("write-through cache alias staleness not detected")
	}
}

// TestPhysicallyIndexedAliasesConsistent verifies the other Section 3.3
// claim: with a physically indexed cache, all aliases align naturally
// and no software management is needed for CPU sharing.
func TestPhysicallyIndexedAliasesConsistent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Frames = 64
	cfg.DCacheIndexing = cache.PhysicalIndex
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := &tableWalker{entries: map[arch.VPN]tlb.Entry{
		0x30: {PFN: 8, Prot: arch.ProtReadWrite},
		0x31: {PFN: 8, Prot: arch.ProtReadWrite},
	}}
	m.SetWalker(w)
	va1, va2 := m.Geom.PageBase(0x30), m.Geom.PageBase(0x31)
	for i := 0; i < 100; i++ {
		if err := m.Write(1, va1+arch.VA(i%32*8), uint64(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Read(1, va2+arch.VA(i%32*8)); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(m.Oracle.Violations()); n != 0 {
		t.Fatalf("physically indexed cache produced %d stale reads", n)
	}
}

func TestDMABypassesCache(t *testing.T) {
	m, w := newMachine(t)
	w.entries[1] = tlb.Entry{PFN: 1, Prot: arch.ProtReadWrite}
	va := m.Geom.PageBase(1)
	pa := m.Geom.FrameBase(1)

	// DMA-write into memory is invisible through a cached copy.
	if _, err := m.Read(1, va); err != nil { // cache the line
		t.Fatal(err)
	}
	m.DMAWrite(pa, []uint64{0xD0A})
	if _, err := m.Read(1, va); err != nil { // stale hit
		t.Fatal(err)
	}
	if len(m.Oracle.Violations()) != 1 {
		t.Fatalf("DMA-write shadowing not detected (%d violations)", len(m.Oracle.Violations()))
	}

	// DMA-read sees memory, not the cache: a dirty line makes the
	// device read stale bytes.
	if err := m.Write(1, va+8, 0xFEED); err != nil {
		t.Fatal(err)
	}
	m.DMARead(pa+8, 1)
	if len(m.Oracle.Violations()) != 2 {
		t.Fatal("DMA-read of stale memory not detected")
	}
	if m.Stats().DMAReads != 1 || m.Stats().DMAWrites != 1 {
		t.Errorf("dma stats = %+v", m.Stats())
	}
}

func TestFetchUsesICache(t *testing.T) {
	m, w := newMachine(t)
	w.entries[2] = tlb.Entry{PFN: 2, Prot: arch.ProtRead}
	m.Mem.WriteWord(m.Geom.FrameBase(2), 0xC0DE)
	m.Oracle.RecordWrite(m.Geom.FrameBase(2), 0xC0DE)
	v, err := m.Fetch(1, m.Geom.PageBase(2))
	if err != nil || v != 0xC0DE {
		t.Fatalf("fetch = %#x, %v", v, err)
	}
	if p, _ := m.ICache.Present(m.Geom.FrameBase(2)); !p {
		t.Error("fetch did not populate the instruction cache")
	}
	if p, _ := m.DCache.Present(m.Geom.FrameBase(2)); p {
		t.Error("fetch populated the data cache")
	}
}

// TestWaysSmallerThanPageIsAnError: a D- or I-cache associativity that
// leaves each way smaller than a page is rejected by New with an error.
func TestWaysSmallerThanPageIsAnError(t *testing.T) {
	for _, tc := range []struct {
		name  string
		dWays int
		iWays int
	}{
		{"dcache-128-ways", 128, 1},
		{"dcache-8192-ways", 8192, 1},
		{"icache-64-ways", 1, 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Frames = 64
			cfg.DCacheWays, cfg.ICacheWays = tc.dWays, tc.iWays
			if _, err := New(cfg); err == nil {
				t.Fatal("New accepted ways smaller than a page")
			}
		})
	}
}

// TestNewRejectsOversizedMachine: a processor or frame count past the
// size limits is an error from New, returned before any cache, TLB or
// memory is allocated, and CheckSize draws the same line.
func TestNewRejectsOversizedMachine(t *testing.T) {
	for _, tc := range []struct{ cpus, frames int }{
		{MaxCPUs + 1, 64},
		{1 << 30, 64},
		{-1, 64},
		{1, MaxFrames + 1},
		{1, 1 << 40},
		{1, -4},
	} {
		cfg := DefaultConfig()
		cfg.CPUs, cfg.Frames = tc.cpus, tc.frames
		if _, err := New(cfg); err == nil {
			t.Errorf("New(cpus %d, frames %d) succeeded, want a size error", tc.cpus, tc.frames)
		}
		if CheckSize(tc.cpus, tc.frames) == nil {
			t.Errorf("CheckSize(%d, %d) = nil, want an error", tc.cpus, tc.frames)
		}
	}
	if err := CheckSize(MaxCPUs, MaxFrames); err != nil {
		t.Errorf("CheckSize at the limits: %v", err)
	}
	if err := CheckSize(0, 0); err != nil {
		t.Errorf("CheckSize of the defaults: %v", err)
	}
}
