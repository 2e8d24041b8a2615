// Hot-path benchmarks: how fast the simulator itself runs, fast paths
// on versus the word-at-a-time reference pipeline, with the oracle off
// as in perfbench's kernel-build cells (the fast paths engage with it on
// too; fastpath_test.go proves the Results identical either way, oracle
// on or off). The end-to-end number with its spread is perfbench's
// ns_per_simcycle; these targets compare the two pipelines directly:
//
//	go test -run '^$' -bench HotPath .
package vcache

import (
	"testing"

	"vcache/internal/policy"
	"vcache/internal/workload"
)

// benchHotPath runs kernel-build (the heaviest benchmark: constant
// frame recycling, so the most zero/copy traffic) under cfg with the
// oracle off.
func benchHotPath(b *testing.B, label string, fast bool) {
	cfg, err := policy.ByLabel(label)
	if err != nil {
		b.Fatal(err)
	}
	kc := defaultKC(cfg)
	kc.Machine.WithOracle = false
	kc.Machine.DisableFastPaths = !fast
	runWorkload(b, workload.KernelBuild(), cfg, kc)
}

// BenchmarkHotPathFast is the production configuration: bulk zero/copy
// and DMA paths on.
func BenchmarkHotPathFast(b *testing.B) {
	for _, label := range []string{"A", "F"} {
		b.Run(label, func(b *testing.B) { benchHotPath(b, label, true) })
	}
}

// BenchmarkHotPathReference forces the word-at-a-time pipeline
// (DisableFastPaths) — the denominator of the fast-path speedup.
func BenchmarkHotPathReference(b *testing.B) {
	for _, label := range []string{"A", "F"} {
		b.Run(label, func(b *testing.B) { benchHotPath(b, label, false) })
	}
}
