package vcache

import (
	"runtime"
	"testing"

	"vcache/internal/kernel"
	"vcache/internal/policy"
	"vcache/internal/workload"
)

// Byte budgets for the two ways a run gets a machine: a cold boot of the
// default F kernel, and a fork of the kernel-build × F post-setup image
// that perfbench's kbuild-F restores (full scale, oracle off). Both
// allocate each CPU's cache state — tag words, LRU stamps, line data,
// residency counts — so a wider per-line layout shows up here first.
// With 24 bytes per line (valid, dirty, tag, LRU stamp) the boot
// allocated 929,096 B and the fork 900,736 B; with one tag word per line
// and no LRU stamps in the direct-mapped caches, 732,552 and 704,192 B
// (Go 1.24, linux/amd64).
const (
	bootByteBudget = 800_000
	forkByteBudget = 800_000
)

// allocBytes returns the fewest bytes op allocated over three tries, so a
// stray allocation by another goroutine in one try does not count.
func allocBytes(op func()) uint64 {
	best := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		op()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

func TestBootAndForkByteBudget(t *testing.T) {
	cfg, err := policy.ByLabel("F")
	if err != nil {
		t.Fatal(err)
	}
	kc := kernel.DefaultConfig(cfg)
	var bootErr error
	boot := allocBytes(func() { _, bootErr = kernel.New(kc) })
	if bootErr != nil {
		t.Fatal(bootErr)
	}

	kc.Machine.WithOracle = false
	k, err := kernel.New(kc)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.KernelBuild().Setup(k, workload.Full()); err != nil {
		t.Fatal(err)
	}
	snap := k.Snapshot()
	fork := allocBytes(func() { snap.Fork() })

	t.Logf("kernel.New allocates %d B, Snapshot.Fork %d B", boot, fork)
	if boot > bootByteBudget {
		t.Errorf("kernel.New of the default F kernel allocates %d B, budget %d B", boot, bootByteBudget)
	}
	if fork > forkByteBudget {
		t.Errorf("Snapshot.Fork of the kernel-build image allocates %d B, budget %d B", fork, forkByteBudget)
	}
}
