package workload

import (
	"context"
	"testing"

	"vcache/internal/harness"
	"vcache/internal/kernel"
	"vcache/internal/policy"
)

// runOnce performs one cold run of w; a nil kc means the default system.
func runOnce(w Workload, cfg policy.Config, s Scale, kc *kernel.Config) (Result, error) {
	r, _, _, err := harness.Exec(context.Background(), harness.Spec{Workload: w, Config: cfg, Scale: s, Kernel: kc}, nil)
	return r, err
}

// TestBenchmarksAllConfigs runs each paper benchmark at small scale
// under every lettered configuration — the whole matrix submitted as one
// parallel harness plan — asserting correctness (no stale transfers) and
// the paper's headline relations: the new system (F) is no slower than
// the old one (A), and flush+purge work never increases as optimizations
// accumulate in the direction each optimization targets.
func TestBenchmarksAllConfigs(t *testing.T) {
	benchmarks := Benchmarks()
	configs := policy.Configs()
	all, err := harness.Results((&harness.Runner{Workers: 4}).Run(context.Background(), harness.Matrix(benchmarks, configs, Small())))
	if err != nil {
		t.Fatal(err)
	}
	for bi, w := range Benchmarks() {
		results := all[bi*len(configs) : (bi+1)*len(configs)]
		t.Run(w.Name, func(t *testing.T) {
			for _, r := range results {
				if r.OracleChecks == 0 {
					t.Fatalf("%s under %s: oracle not exercised", w.Name, r.Config.Label)
				}
			}
			a, f := results[0], results[len(results)-1]
			if f.Seconds > a.Seconds*1.02 {
				t.Errorf("config F (%.4fs) slower than config A (%.4fs)", f.Seconds, a.Seconds)
			}
			if f.PM.DFlushPages > a.PM.DFlushPages {
				t.Errorf("config F flushes (%d) exceed config A (%d)", f.PM.DFlushPages, a.PM.DFlushPages)
			}
			// Mapping faults are an architecture-independent cost: they
			// should be roughly constant across configurations.
			for _, r := range results {
				lo, hi := a.PM.MappingFaults*9/10, a.PM.MappingFaults*11/10
				if r.PM.MappingFaults < lo || r.PM.MappingFaults > hi {
					t.Errorf("config %s mapping faults %d deviate from A's %d",
						r.Config.Label, r.PM.MappingFaults, a.PM.MappingFaults)
				}
			}
		})
	}
}

// TestStressAllConfigs tortures every configuration and Table 5 system
// with randomized operation sequences — the full config × seed matrix as
// one parallel plan; the oracle proves no stale data is ever delivered
// to the CPU, the instruction stream, or a device (harness.Results
// rejects any unclean run).
func TestStressAllConfigs(t *testing.T) {
	var plan harness.Plan
	for _, cfg := range append(policy.Configs(), policy.Table5Systems()...) {
		for seed := uint64(1); seed <= 3; seed++ {
			plan = append(plan, harness.Spec{
				Name:     cfg.Label + "/" + Stress(seed, 400).Name,
				Workload: Stress(seed, 400),
				Config:   cfg,
				Scale:    Full(),
			})
		}
	}
	if _, err := harness.Results((&harness.Runner{Workers: 4}).Run(context.Background(), plan)); err != nil {
		t.Fatal(err)
	}
}

// TestAliasMicro verifies the Section 2.5 microbenchmark shape: aligned
// aliases run orders of magnitude faster than unaligned ones, and both
// stay correct.
func TestAliasMicro(t *testing.T) {
	const writes = 20000
	aligned, err := RunAliasMicro(policy.New(), writes, true)
	if err != nil {
		t.Fatal(err)
	}
	unaligned, err := RunAliasMicro(policy.New(), writes, false)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := unaligned.Seconds / aligned.Seconds; ratio < 50 {
		t.Errorf("unaligned/aligned ratio %.1f, want >= 50 (paper: fraction of a second vs >2 minutes)", ratio)
	}
	if aligned.DFlushes+aligned.DPurges > 4 {
		t.Errorf("aligned loop performed %d flushes and %d purges, want ~0",
			aligned.DFlushes, aligned.DPurges)
	}
	if unaligned.DFlushes == 0 && unaligned.DPurges == 0 {
		t.Error("unaligned loop performed no cache management — engine not engaged")
	}
}
