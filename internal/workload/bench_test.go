package workload

import (
	"testing"

	"vcache/internal/kernel"
	"vcache/internal/policy"
)

// Per-layer microbenchmarks above the cache: the pmap consistency fault
// and a warm-boot fork. Run with
//
//	go test -run '^$' -bench . ./internal/workload

// BenchmarkConsistencyFault times one store of the Section 2.5 loop with
// unaligned aliases under configuration F, oracle on as RunAliasMicro
// ships it: every store is a consistency fault whose handler flushes one
// cache page and purges another. ns/op is ns per write.
func BenchmarkConsistencyFault(b *testing.B) {
	cfg, err := policy.ByLabel("F")
	if err != nil {
		b.Fatal(err)
	}
	k, space, va, err := aliasSetup(cfg, false)
	if err != nil {
		b.Fatal(err)
	}
	faults := k.M.Stats().Faults
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := k.M.Write(space, va[(i+1)&1], uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if n := k.M.Stats().Faults - faults; n < uint64(b.N) {
		b.Fatalf("%d faults over %d writes: not every write faulted", n, b.N)
	}
}

// BenchmarkSnapshotFork times one warm boot: forking the post-setup image
// of kernel-build under F (Full scale), with the oracle off (the Table 4
// cell) and on (its shadow is forked too).
func BenchmarkSnapshotFork(b *testing.B) {
	for _, tc := range []struct {
		name   string
		oracle bool
	}{{"oracle-off", false}, {"oracle-on", true}} {
		b.Run(tc.name, func(b *testing.B) {
			s := kbuildImage(b, tc.oracle)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if s.Fork() == nil {
					b.Fatal("nil fork")
				}
			}
		})
	}
}

// TestSnapshotForkAllocs bounds the allocations of one warm boot of
// kernel-build under F (the BenchmarkSnapshotFork/oracle-off cell). Every
// layer copies its state into a few flat slices, so a fork costs a few
// dozen allocations rather than one per page-table entry, file, buffer
// or mapping list.
func TestSnapshotForkAllocs(t *testing.T) {
	s := kbuildImage(t, false)
	if n := testing.AllocsPerRun(20, func() { s.Fork() }); n > 150 {
		t.Fatalf("a fork makes %v allocations, want at most 150", n)
	}
}

// kbuildImage boots kernel-build under F, runs its Full setup and
// freezes the result into the image a warm boot forks.
func kbuildImage(tb testing.TB, oracle bool) *kernel.Snapshot {
	tb.Helper()
	cfg, err := policy.ByLabel("F")
	if err != nil {
		tb.Fatal(err)
	}
	kc := kernel.DefaultConfig(cfg)
	kc.Machine.WithOracle = oracle
	k, err := kernel.New(kc)
	if err != nil {
		tb.Fatal(err)
	}
	if err := KernelBuild().Setup(k, Full()); err != nil {
		tb.Fatal(err)
	}
	return k.Snapshot()
}
