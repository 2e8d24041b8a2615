package workload

import (
	"context"
	"testing"

	"vcache/internal/cache"
	"vcache/internal/harness"
	"vcache/internal/kernel"
	"vcache/internal/policy"
)

// TestVariantArchitectures (experiment E8) runs the randomized stress
// workload on the Section 3.3 architecture variants — write-through data
// cache, physically indexed data cache, and set-associative caches —
// under both the eager and the fully optimized policy. The oracle proves
// the consistency model holds on each.
func TestVariantArchitectures(t *testing.T) {
	variants := []struct {
		name string
		mut  func(*kernel.Config)
	}{
		{"write-through-VI", func(c *kernel.Config) { c.Machine.DCachePolicy = cache.WriteThrough }},
		{"write-back-PI", func(c *kernel.Config) { c.Machine.DCacheIndexing = cache.PhysicalIndex }},
		{"write-through-PI", func(c *kernel.Config) {
			c.Machine.DCachePolicy = cache.WriteThrough
			c.Machine.DCacheIndexing = cache.PhysicalIndex
		}},
		{"2-way-VI", func(c *kernel.Config) { c.Machine.DCacheWays = 2 }},
		{"4-way-VI", func(c *kernel.Config) { c.Machine.DCacheWays = 4 }},
		{"2-way-icache", func(c *kernel.Config) { c.Machine.ICacheWays = 2 }},
	}
	var plan harness.Plan
	for _, v := range variants {
		for _, cfg := range []policy.Config{policy.Old(), policy.New()} {
			kc := kernel.DefaultConfig(cfg)
			v.mut(&kc)
			plan = append(plan, harness.Spec{
				Name:     v.name + "/" + cfg.Label,
				Workload: Stress(7, 300),
				Config:   cfg,
				Scale:    Full(),
				Kernel:   &kc,
			})
		}
	}
	results, err := harness.Results((&harness.Runner{Workers: 4}).Run(context.Background(), plan))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.OracleChecks == 0 {
			t.Errorf("%s: oracle not exercised", plan[i].Label())
		}
	}
}

// TestWriteThroughNeverFlushes: in a write-through cache memory is never
// stale, so the consistency machinery should issue no DMA-read flushes
// through the dirty path (the dirty state does not exist). Cache
// management degenerates to purges.
func TestWriteThroughSimplification(t *testing.T) {
	kc := kernel.DefaultConfig(policy.New())
	kc.Machine.DCachePolicy = cache.WriteThrough
	r, err := runOnce(KernelBuild(), policy.New(), Small(), &kc)
	if err != nil {
		t.Fatal(err)
	}
	if r.OracleViolations != 0 {
		t.Fatalf("%d stale transfers", r.OracleViolations)
	}
	// The software layer still *issues* flush operations (it tracks
	// dirty conservatively), but none of them can write anything back:
	// the cache has no dirty lines.
	if wb := r.Machine.DMAWords; wb == 0 {
		t.Error("workload did no DMA at all")
	}
}

// TestDeterminism: the simulator is fully deterministic — identical
// runs produce identical cycle counts and operation counts.
func TestDeterminism(t *testing.T) {
	run := func() Result {
		r, err := runOnce(KernelBuild(), policy.New(), Small(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles {
		t.Errorf("cycles differ: %d vs %d", a.Cycles, b.Cycles)
	}
	if a.PM != b.PM {
		t.Errorf("pmap stats differ:\n%+v\n%+v", a.PM, b.PM)
	}
	if a.Disk != b.Disk {
		t.Errorf("disk stats differ: %+v vs %+v", a.Disk, b.Disk)
	}
}

// TestScaleMonotone: larger scale factors do more work.
func TestScaleMonotone(t *testing.T) {
	small, err := runOnce(AFSBench(), policy.New(), Scale{Factor: 0.1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	big, err := runOnce(AFSBench(), policy.New(), Scale{Factor: 0.4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if big.Cycles <= small.Cycles {
		t.Errorf("scale 0.4 (%d cycles) not above scale 0.1 (%d)", big.Cycles, small.Cycles)
	}
}

// TestByName covers the lookup helper.
func TestByName(t *testing.T) {
	for _, name := range []string{"afs-bench", "latex-paper", "kernel-build"} {
		w, err := ByName(name)
		if err != nil || w.Name != name {
			t.Errorf("ByName(%q) = %v, %v", name, w.Name, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}
