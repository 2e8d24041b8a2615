package machine

import (
	"fmt"
	"reflect"
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
// back because CPUs > 1) and stay exact: the per-line peer snoops, sent
// only to the peers holding the frame, must leave every cache, the
// memory image, the statistics and the cycle count identical to the
// word-at-a-time reference loop run on a twin machine. With the oracle
// on, the two must also agree on its checks, violations and shadow.
func TestSMPBulkFastPathExact(t *testing.T) {
	for _, cpus := range []int{2, 4} {
		t.Run(fmt.Sprintf("%dcpu", cpus), func(t *testing.T) {
			for _, withOracle := range []bool{false, true} {
				t.Run(fmt.Sprintf("oracle=%t", withOracle), func(t *testing.T) { testSMPBulkFastPathExact(t, cpus, withOracle) })
			}
		})
	}
}

func testSMPBulkFastPathExact(t *testing.T, cpus int, withOracle bool) {
	build := func(noFast bool) *Machine {
		cfg := DefaultConfig()
		cfg.Frames = 64
		cfg.CPUs = cpus
		cfg.WithOracle = withOracle
		cfg.DisableFastPaths = noFast
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.SetWalker(&tableWalker{entries: map[arch.VPN]tlb.Entry{
			5: {PFN: 7, Prot: arch.ProtReadWrite},
			6: {PFN: 8, Prot: arch.ProtReadWrite},
		}})
		return m
	}
	wordVA := func(m *Machine, word uint64) arch.VA {
		return m.Geom.PageBase(5) + arch.VA(word*arch.WordSize)
	}
	// Dirty two lines on CPU 1, then zero the page from CPU 0: line 0's
	// peer copy dies via the first word's full pipeline, line 1's via
	// the tail snoop. On four CPUs peer 2 holds only another frame and
	// peer 3 a few clean lines of the page (partial residency).
	dirty := func(m *Machine) {
		wpl := m.Geom.WordsPerLine()
		m.SetCurrentCPU(1)
		if err := m.Write(0, wordVA(m, 0), 11); err != nil {
			t.Fatal(err)
		}
		if err := m.Write(0, wordVA(m, wpl), 22); err != nil {
			t.Fatal(err)
		}
		if cpus == 4 {
			m.SetCurrentCPU(2)
			if err := m.Write(0, m.Geom.PageBase(6), 33); err != nil {
				t.Fatal(err)
			}
			m.SetCurrentCPU(3)
			for l := uint64(2); l < 128; l += 9 {
				if _, err := m.Read(0, wordVA(m, l*wpl+1)); err != nil {
					t.Fatal(err)
				}
			}
		}
		m.SetCurrentCPU(0)
	}

	fast := build(false)
	dirty(fast)
	n, err := fast.BulkZeroPage(0, wordVA(fast, 0))
	if err != nil {
		t.Fatal(err)
	}
	if n != fast.Geom.WordsPerPage() {
		t.Fatalf("bulk fast path performed %d of %d words — did not engage on %d CPUs", n, fast.Geom.WordsPerPage(), cpus)
	}
	for i := 1; i < cpus; i++ {
		if p, _ := fast.cpus[i].DCache.Present(fast.Geom.FrameBase(7)); p {
			t.Errorf("CPU %d's copy survived the bulk zero's peer snoops", i)
		}
	}

	slow := build(true)
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
	for f := arch.PFN(7); f <= 8; f++ {
		for off := uint64(0); off < fast.Geom.PageSize; off += arch.WordSize {
			pa := fast.Geom.FrameBase(f) + arch.PA(off)
			if a, b := fast.Mem.ReadWord(pa), slow.Mem.ReadWord(pa); a != b {
				t.Fatalf("memory at %#x: fast %d, reference %d", uint64(pa), a, b)
			}
			if a, b := fast.Oracle.Expected(pa), slow.Oracle.Expected(pa); a != b {
				t.Fatalf("oracle shadow at %#x: fast %d, reference %d", uint64(pa), a, b)
			}
		}
	}
	if fast.Oracle.Checks() != slow.Oracle.Checks() || !reflect.DeepEqual(fast.Oracle.Violations(), slow.Oracle.Violations()) {
		t.Errorf("oracle: fast %d checks %v, reference %d checks %v",
			fast.Oracle.Checks(), fast.Oracle.Violations(), slow.Oracle.Checks(), slow.Oracle.Violations())
	}
	if withOracle && fast.Oracle.Checks() == 0 {
		t.Error("the oracle checked nothing")
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
// nothing, on one CPU and on several; nor do the page runs on four.
func TestSerialBroadcastAllocationFree(t *testing.T) {
	t.Run("page-runs-4cpu", testPageRunsAllocationFree)
	for _, cpus := range []int{1, 2, 4} {
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

// testPageRunsAllocationFree: the multiprocessor page runs — Strided,
// BulkZeroPage and BulkCopyPage with a peer holding part of each frame —
// keep their peer set in a word and allocate nothing.
func testPageRunsAllocationFree(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Frames = 64
	cfg.CPUs = 4
	cfg.WithOracle = false
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.SetWalker(&tableWalker{entries: map[arch.VPN]tlb.Entry{
		2: {PFN: 2, Prot: arch.ProtReadWrite},
		3: {PFN: 3, Prot: arch.ProtReadWrite},
	}})
	var seq uint64
	next := func() uint64 { seq++; return seq }
	src, dst := m.Geom.PageBase(2), m.Geom.PageBase(3)
	round := func() {
		// Peer 2 dirties a few lines of both frames.
		m.SetCurrentCPU(2)
		for off := uint64(0); off < m.Geom.PageSize; off += 16 * m.Geom.LineSize {
			if err := m.Write(0, src+arch.VA(off), off); err != nil {
				t.Fatal(err)
			}
			if err := m.Write(0, dst+arch.VA(off), off); err != nil {
				t.Fatal(err)
			}
		}
		m.SetCurrentCPU(0)
		for _, acc := range []Access{AccessWrite, AccessRead, AccessExecute} {
			if err := m.Strided(0, src, 2, m.Geom.WordsPerPage()/2, acc, next); err != nil {
				t.Fatal(err)
			}
		}
		if n, err := m.BulkZeroPage(0, dst); err != nil || n != m.Geom.WordsPerPage() {
			t.Fatalf("BulkZeroPage = %d, %v", n, err)
		}
		if n, err := m.BulkCopyPage(0, src, 0, dst); err != nil || n != m.Geom.WordsPerPage() {
			t.Fatalf("BulkCopyPage = %d, %v", n, err)
		}
	}
	round()
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Errorf("%v allocations per round of page runs on 4 CPUs, want 0", allocs)
	}
}
