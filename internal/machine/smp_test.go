package machine

import (
	"testing"

	"vcache/internal/arch"
	"vcache/internal/tlb"
)

func newSMP(t *testing.T, cpus int) (*Machine, *tableWalker) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Frames = 64
	cfg.CPUs = cpus
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := &tableWalker{entries: make(map[arch.VPN]tlb.Entry)}
	m.SetWalker(w)
	return m, w
}

// TestSMPAlignedCoherence verifies the Section 3.3 claim: hardware keeps
// *aligned* copies consistent across CPUs — same virtual page on two
// processors behaves like one set of a distributed set-associative
// cache, with no software management at all.
func TestSMPAlignedCoherence(t *testing.T) {
	m, w := newSMP(t, 2)
	w.entries[5] = tlb.Entry{PFN: 7, Prot: arch.ProtReadWrite}
	va := m.Geom.PageBase(5)

	// CPU 0 writes, CPU 1 reads the same virtual address.
	m.SetCurrentCPU(0)
	if err := m.Write(0, va, 100); err != nil {
		t.Fatal(err)
	}
	m.SetCurrentCPU(1)
	v, err := m.Read(0, va)
	if err != nil {
		t.Fatal(err)
	}
	if v != 100 {
		t.Fatalf("CPU 1 read %d after CPU 0's write", v)
	}
	// Ping-pong writes; every read must observe the latest.
	for i := 0; i < 50; i++ {
		m.SetCurrentCPU(i % 2)
		if err := m.Write(0, va, uint64(200+i)); err != nil {
			t.Fatal(err)
		}
		m.SetCurrentCPU((i + 1) % 2)
		got, err := m.Read(0, va)
		if err != nil {
			t.Fatal(err)
		}
		if got != uint64(200+i) {
			t.Fatalf("iteration %d: read %d", i, got)
		}
	}
	if n := len(m.Oracle.Violations()); n != 0 {
		t.Fatalf("%d stale transfers on hardware-coherent aligned sharing", n)
	}
}

// TestSMPDirtyMigration: a dirty line written on one CPU must be
// supplied (via write-back) when another CPU reads it, and the
// write-back must not lose the data.
func TestSMPDirtyMigration(t *testing.T) {
	m, w := newSMP(t, 4)
	w.entries[3] = tlb.Entry{PFN: 3, Prot: arch.ProtReadWrite}
	va := m.Geom.PageBase(3)
	for cpu := 0; cpu < 4; cpu++ {
		m.SetCurrentCPU(cpu)
		if err := m.Write(0, va+arch.VA(cpu*8), uint64(cpu+1)); err != nil {
			t.Fatal(err)
		}
	}
	for cpu := 0; cpu < 4; cpu++ {
		m.SetCurrentCPU(3 - cpu)
		v, err := m.Read(0, va+arch.VA(cpu*8))
		if err != nil {
			t.Fatal(err)
		}
		if v != uint64(cpu+1) {
			t.Fatalf("word %d = %d", cpu, v)
		}
	}
	if n := len(m.Oracle.Violations()); n != 0 {
		t.Fatalf("%d stale transfers", n)
	}
}

// TestSMPUnalignedStillBroken: the hardware does NOT manage unaligned
// aliases across CPUs — exactly as on one CPU, that remains the
// operating system's job (the oracle sees the stale transfer when no OS
// is present).
func TestSMPUnalignedStillBroken(t *testing.T) {
	m, w := newSMP(t, 2)
	w.entries[0x10] = tlb.Entry{PFN: 9, Prot: arch.ProtReadWrite}
	w.entries[0x11] = tlb.Entry{PFN: 9, Prot: arch.ProtReadWrite}
	va1, va2 := m.Geom.PageBase(0x10), m.Geom.PageBase(0x11)
	m.SetCurrentCPU(0)
	if _, err := m.Read(0, va2); err != nil { // CPU 0 caches via the alias
		t.Fatal(err)
	}
	m.SetCurrentCPU(1)
	if err := m.Write(0, va1, 42); err != nil { // CPU 1 writes via the other
		t.Fatal(err)
	}
	m.SetCurrentCPU(0)
	if _, err := m.Read(0, va2); err != nil { // stale hit on CPU 0
		t.Fatal(err)
	}
	if len(m.Oracle.Violations()) == 0 {
		t.Fatal("unaligned cross-CPU alias unexpectedly coherent — snoop is too aggressive")
	}
}

// TestBroadcastOps: kernel-level flush/purge/shootdown must reach every
// CPU's cache and TLB.
func TestBroadcastOps(t *testing.T) {
	m, w := newSMP(t, 3)
	w.entries[2] = tlb.Entry{PFN: 2, Prot: arch.ProtReadWrite}
	va := m.Geom.PageBase(2)
	for cpu := 0; cpu < 3; cpu++ {
		m.SetCurrentCPU(cpu)
		if _, err := m.Read(0, va); err != nil {
			t.Fatal(err)
		}
	}
	m.FlushDPage(m.Geom.DCachePageOf(va), 2)
	for cpu := 0; cpu < 3; cpu++ {
		if p, _ := m.cpus[cpu].DCache.Present(m.Geom.FrameBase(2)); p {
			t.Errorf("CPU %d cache survived broadcast flush", cpu)
		}
	}
	// TLB shootdown: change the translation; every CPU must see it.
	w.entries[2] = tlb.Entry{PFN: 4, Prot: arch.ProtReadWrite}
	m.InvalidateTLB(0, 2)
	for cpu := 0; cpu < 3; cpu++ {
		m.SetCurrentCPU(cpu)
		if err := m.Write(0, va, uint64(cpu)); err != nil {
			t.Fatal(err)
		}
	}
	// The last writer owns the line exclusively (earlier copies were
	// snoop-invalidated); it must be cached under the NEW frame.
	if p, _ := m.cpus[2].DCache.Present(m.Geom.FrameBase(4)); !p {
		t.Error("post-shootdown access did not use the new translation")
	}
	if p, _ := m.cpus[0].DCache.Present(m.Geom.FrameBase(4)); p {
		t.Error("snoop failed to invalidate the earlier writer's copy")
	}
}

// TestSMPBulkFastPathExact proves the multiprocessor bulk paths both
// ENGAGE (BulkZeroPage performs the whole page, rather than falling
// back because CPUs > 1) and stay exact: the hoisted per-line peer
// snoops must leave every cache, the memory image, the statistics and
// the cycle count identical to the word-at-a-time reference loop run
// on a twin machine.
func TestSMPBulkFastPathExact(t *testing.T) {
	build := func(noFast bool) (*Machine, *tableWalker) {
		cfg := DefaultConfig()
		cfg.Frames = 64
		cfg.CPUs = 2
		cfg.WithOracle = false // the oracle correctly forces the slow path
		cfg.DisableFastPaths = noFast
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		w := &tableWalker{entries: map[arch.VPN]tlb.Entry{
			5: {PFN: 7, Prot: arch.ProtReadWrite},
		}}
		m.SetWalker(w)
		return m, w
	}
	wordVA := func(m *Machine, word uint64) arch.VA {
		return m.Geom.PageBase(5) + arch.VA(word*arch.WordSize)
	}
	// Dirty two lines on CPU 1, then zero the page from CPU 0: line 0's
	// peer copy dies via the first word's full pipeline, line 1's via
	// the hoisted tail snoop.
	dirty := func(m *Machine) {
		m.SetCurrentCPU(1)
		if err := m.Write(0, wordVA(m, 0), 11); err != nil {
			t.Fatal(err)
		}
		if err := m.Write(0, wordVA(m, m.Geom.WordsPerLine()), 22); err != nil {
			t.Fatal(err)
		}
		m.SetCurrentCPU(0)
	}

	fast, _ := build(false)
	dirty(fast)
	n, err := fast.BulkZeroPage(0, wordVA(fast, 0))
	if err != nil {
		t.Fatal(err)
	}
	if n != fast.Geom.WordsPerPage() {
		t.Fatalf("bulk fast path performed %d of %d words — did not engage on 2 CPUs", n, fast.Geom.WordsPerPage())
	}
	if p, _ := fast.cpus[1].DCache.Present(fast.Geom.FrameBase(7)); p {
		t.Error("CPU 1's copy survived the bulk zero's peer snoops")
	}

	slow, _ := build(true)
	dirty(slow)
	words := slow.Geom.WordsPerPage()
	for i := uint64(0); i < words; i++ {
		if err := slow.Write(0, wordVA(slow, i), 0); err != nil {
			t.Fatal(err)
		}
	}

	for _, m := range []*Machine{fast, slow} {
		m.SetCurrentCPU(1)
		for _, w := range []uint64{0, m.Geom.WordsPerLine()} {
			v, err := m.Read(0, wordVA(m, w))
			if err != nil {
				t.Fatal(err)
			}
			if v != 0 {
				t.Fatalf("word %d = %d after page zero", w, v)
			}
		}
	}
	if fast.Clock.Cycles() != slow.Clock.Cycles() {
		t.Errorf("cycles: fast %d, reference %d", fast.Clock.Cycles(), slow.Clock.Cycles())
	}
	if fast.stats != slow.stats {
		t.Errorf("machine stats: fast %+v, reference %+v", fast.stats, slow.stats)
	}
	for i := range fast.cpus {
		if fast.cpus[i].DCache.Stats() != slow.cpus[i].DCache.Stats() {
			t.Errorf("CPU %d dcache stats: fast %+v, reference %+v",
				i, fast.cpus[i].DCache.Stats(), slow.cpus[i].DCache.Stats())
		}
		if fast.cpus[i].TLB.Stats() != slow.cpus[i].TLB.Stats() {
			t.Errorf("CPU %d tlb stats: fast %+v, reference %+v",
				i, fast.cpus[i].TLB.Stats(), slow.cpus[i].TLB.Stats())
		}
	}
}

func TestSetCurrentCPUPanicsOutOfRange(t *testing.T) {
	m, _ := newSMP(t, 2)
	if m.NumCPUs() != 2 {
		t.Fatalf("NumCPUs = %d", m.NumCPUs())
	}
	for _, i := range []int{-1, 2, 99} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetCurrentCPU(%d) did not panic", i)
				}
			}()
			m.SetCurrentCPU(i)
		}()
	}
	// In-range selection still works after the panics.
	m.SetCurrentCPU(1)
	if m.CurrentCPU() != 1 {
		t.Errorf("CurrentCPU = %d, want 1", m.CurrentCPU())
	}
}

// TestSerialBroadcastAllocationFree: the broadcast flush and purges are
// plain per-CPU loops that write dirty lines straight back to memory, so
// once warmed up a page flush with dirty lines and both purges allocate
// nothing, on one CPU and on several.
func TestSerialBroadcastAllocationFree(t *testing.T) {
	for _, cpus := range []int{1, 2} {
		m, _ := newSMP(t, cpus)
		va := m.Geom.PageBase(2)
		pa := m.Geom.FrameBase(2)
		allocs := testing.AllocsPerRun(20, func() {
			for off := uint64(0); off < m.Geom.PageSize; off += m.Geom.LineSize {
				m.DCache.Write(va+arch.VA(off), pa+arch.PA(off), off)
			}
			m.FlushDPage(m.Geom.DCachePageOf(va), 2)
			m.PurgeDPage(m.Geom.DCachePageOf(va), 2)
			m.PurgeIPage(m.Geom.ICachePageOf(va), 2)
		})
		if allocs != 0 {
			t.Errorf("%d CPUs: %v allocations per flush+purge round, want 0", cpus, allocs)
		}
		if m.Mem.ReadWord(pa+arch.PA(m.Geom.LineSize)) != m.Geom.LineSize {
			t.Errorf("%d CPUs: flush did not write the dirty lines back", cpus)
		}
	}
}
