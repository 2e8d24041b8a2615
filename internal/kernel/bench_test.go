package kernel

import (
	"testing"

	"vcache/internal/policy"
)

// Syscall-level microbenchmarks: the read(2) page copy and a whole-page
// heap touch under configuration F, oracle off as the benchmark cells
// run, with the fast paths on and forced onto the word-at-a-time
// reference pipeline (DisableFastPaths), each on the paper's one CPU
// and on four. Run with
//
//	go test -run '^$' -bench . ./internal/kernel

// benchModes are the sides of every benchmark here.
var benchModes = []struct {
	name string
	fast bool
	cpus int
}{{"fast", true, 1}, {"reference", false, 1}, {"fast-4cpu", true, 4}, {"reference-4cpu", false, 4}}

// benchBoot boots F with one 8-page process whose heap page 1 is
// resident. On more than one CPU it returns, as peer, a step that has a
// second process on another CPU read every fourth line of that page
// through a shared mapping, so the page's next run finds a peer holding
// part of its frame; on one CPU peer does nothing.
func benchBoot(b testing.TB, fast bool, cpus int) (k *Kernel, p *Process, peer func()) {
	b.Helper()
	kc := DefaultConfig(policy.New())
	kc.Machine.WithOracle = false
	kc.Machine.DisableFastPaths = !fast
	kc.Machine.CPUs = cpus
	k, err := New(kc)
	if err != nil {
		b.Fatal(err)
	}
	if p, err = k.Spawn(nil, 0, 8); err != nil {
		b.Fatal(err)
	}
	if err := k.TouchHeap(p, 1, 1); err != nil {
		b.Fatal(err)
	}
	peer = func() {}
	if cpus > 1 {
		q, err := k.Spawn(nil, 0, 8)
		if err != nil {
			b.Fatal(err)
		}
		vpn, err := k.SharePage(p, 1, q)
		if err != nil {
			b.Fatal(err)
		}
		words := int(k.Geometry().PageSize / k.Geometry().LineSize / 4)
		peer = func() {
			if err := k.ReadPage(q, vpn, words); err != nil {
				b.Fatal(err)
			}
		}
	}
	return k, p, peer
}

// BenchmarkReadFilePage times one read(2) of a buffer-cache-resident
// file page into a resident heap page: the syscall's server
// transaction, the buffer lookup and the page copy. ns/op is per page
// (on four CPUs, plus the peer's read of a quarter of the page's lines).
func BenchmarkReadFilePage(b *testing.B) {
	for _, mode := range benchModes {
		b.Run(mode.name, func(b *testing.B) {
			k, p, peer := benchBoot(b, mode.fast, mode.cpus)
			f, err := k.CreateFile(p, "f")
			if err != nil {
				b.Fatal(err)
			}
			if err := k.WriteFilePage(p, f, 0, 0); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				peer()
				if err := k.ReadFilePage(p, f, 0, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTouchHeap times a store to every word of a resident heap
// page. ns/op is per page (on four CPUs, plus the peer's read of a
// quarter of the page's lines).
func BenchmarkTouchHeap(b *testing.B) {
	for _, mode := range benchModes {
		b.Run(mode.name, func(b *testing.B) {
			k, p, peer := benchBoot(b, mode.fast, mode.cpus)
			words := int(k.Geometry().WordsPerPage())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				peer()
				if err := k.TouchHeap(p, 1, words); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestSteadyOpsDoNotAllocate pins that with no op log attached a
// steady-state heap touch and a buffer-cache read(2) allocate nothing
// on one CPU: an op-log argument is boxed only when it is recorded.
func TestSteadyOpsDoNotAllocate(t *testing.T) {
	k, p, _ := benchBoot(t, true, 1)
	f, err := k.CreateFile(p, "f")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.WriteFilePage(p, f, 0, 0); err != nil {
		t.Fatal(err)
	}
	words := int(k.Geometry().WordsPerPage())
	for _, op := range []struct {
		name string
		run  func() error
	}{
		{"TouchHeap", func() error { return k.TouchHeap(p, 1, words) }},
		{"ReadFilePage", func() error { return k.ReadFilePage(p, f, 0, 1) }},
	} {
		if n := testing.AllocsPerRun(50, func() {
			if err := op.run(); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: %v allocations per op, want 0", op.name, n)
		}
	}
}
