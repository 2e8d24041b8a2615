// Package vcache's root benchmark harness regenerates every measured
// artifact of the paper as a Go benchmark, one family per table or
// figure (see DESIGN.md's per-experiment index):
//
//	BenchmarkTable1  — old vs new kernel on the three benchmarks
//	BenchmarkTable4  — the six-configuration sweep
//	BenchmarkTable5  — the five-system comparison on the torture workload
//	BenchmarkAliasMicro — the Section 2.5 aligned/unaligned write loop
//	BenchmarkVariants — the Section 3.3 architecture variants
//	BenchmarkFastPurge — the Section 5.1 single-cycle-purge what-if
//	BenchmarkAblation* — the design-choice ablations listed in DESIGN.md
//
// Simulated time, flush counts, and purge counts are emitted as custom
// metrics (sim-sec/op, flushes/op, purges/op); wall-clock ns/op measures
// only how fast the simulator itself runs.
package vcache

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"vcache/internal/cache"
	"vcache/internal/harness"
	"vcache/internal/kernel"
	"vcache/internal/policy"
	"vcache/internal/sim"
	"vcache/internal/workload"
)

// benchScale keeps full-table runs inside a sane benchmark budget while
// preserving every effect (frame recycling still occurs at this scale).
var benchScale = workload.Scale{Name: "bench", Factor: 0.3}

// runWorkload runs w under cfg once per iteration (one harness Spec per
// run) and reports the simulated metrics of the last run.
func runWorkload(b *testing.B, w workload.Workload, cfg policy.Config, kcfg kernel.Config) workload.Result {
	b.Helper()
	var last workload.Result
	for i := 0; i < b.N; i++ {
		r, _, _, err := harness.Exec(context.Background(), harness.Spec{Workload: w, Config: cfg, Scale: benchScale, Kernel: &kcfg}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.CheckClean(); err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.Seconds, "sim-sec/op")
	b.ReportMetric(float64(last.PM.DFlushPages), "flushes/op")
	b.ReportMetric(float64(last.PM.DPurgePages+last.PM.IPurgePages), "purges/op")
	b.ReportMetric(float64(last.PM.ConsistencyFaults), "consfaults/op")
	return last
}

// BenchmarkMatrixFanout measures the harness itself: the full Table 4
// plan (3 benchmarks × 6 configurations) submitted serially (j1) and
// with full fan-out (jN for N = GOMAXPROCS). On a multicore machine the
// jN case should approach linear speedup; wall-clock ns/op is the
// metric of interest.
func BenchmarkMatrixFanout(b *testing.B) {
	scale := workload.Scale{Name: "bench", Factor: 0.15}
	plan := harness.Matrix(workload.Benchmarks(), policy.Configs(), scale)
	widths := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		widths = append(widths, n)
	}
	for _, workers := range widths {
		workers := workers
		b.Run(fmt.Sprintf("j%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := harness.Results((&harness.Runner{Workers: workers}).Run(context.Background(), plan)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(plan)), "runs/op")
		})
	}
}

func defaultKC(cfg policy.Config) kernel.Config { return kernel.DefaultConfig(cfg) }

// BenchmarkTable1 regenerates Table 1: the three benchmarks under the
// old (A) and new (F) systems.
func BenchmarkTable1(b *testing.B) {
	for _, w := range workload.Benchmarks() {
		for _, cfg := range []policy.Config{policy.Old(), policy.New()} {
			name := w.Name + "/"
			if cfg.Label == "A" {
				name += "old"
			} else {
				name += "new"
			}
			w, cfg := w, cfg
			b.Run(name, func(b *testing.B) {
				runWorkload(b, w, cfg, defaultKC(cfg))
			})
		}
	}
}

// BenchmarkTable4 regenerates Table 4: each benchmark under each of the
// six cumulative configurations.
func BenchmarkTable4(b *testing.B) {
	for _, w := range workload.Benchmarks() {
		for _, cfg := range policy.Configs() {
			w, cfg := w, cfg
			b.Run(w.Name+"/"+cfg.Label, func(b *testing.B) {
				runWorkload(b, w, cfg, defaultKC(cfg))
			})
		}
	}
}

// BenchmarkTable5 regenerates Table 5's measured column: the five
// systems on the randomized torture workload.
func BenchmarkTable5(b *testing.B) {
	for _, cfg := range policy.Table5Systems() {
		cfg := cfg
		b.Run(cfg.Label, func(b *testing.B) {
			runWorkload(b, workload.Stress(42, 500), cfg, defaultKC(cfg))
		})
	}
}

// BenchmarkAliasMicro regenerates the Section 2.5 microbenchmark: a
// write loop over two mappings of one physical page, aligned vs not.
func BenchmarkAliasMicro(b *testing.B) {
	const writes = 50000
	for _, aligned := range []bool{true, false} {
		aligned := aligned
		name := "aligned"
		if !aligned {
			name = "unaligned"
		}
		b.Run(name, func(b *testing.B) {
			var last workload.AliasMicroResult
			for i := 0; i < b.N; i++ {
				r, err := workload.RunAliasMicro(policy.New(), writes, aligned)
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			b.ReportMetric(last.Seconds, "sim-sec/op")
			b.ReportMetric(float64(last.Faults), "faults/op")
		})
	}
}

// BenchmarkVariants exercises the Section 3.3 architecture variants —
// write-through data cache, physically indexed data cache, and a
// two-way set-associative cache — under the full workload stress, with
// the oracle proving consistency holds in each.
func BenchmarkVariants(b *testing.B) {
	variants := []struct {
		name string
		mut  func(*kernel.Config)
	}{
		{"write-back-VI", func(c *kernel.Config) {}},
		{"write-through-VI", func(c *kernel.Config) { c.Machine.DCachePolicy = cache.WriteThrough }},
		{"write-back-PI", func(c *kernel.Config) { c.Machine.DCacheIndexing = cache.PhysicalIndex }},
		{"2-way-VI", func(c *kernel.Config) { c.Machine.DCacheWays = 2 }},
		{"2-cpu-SMP", func(c *kernel.Config) { c.Machine.CPUs = 2 }},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			cfg := policy.New()
			kc := defaultKC(cfg)
			v.mut(&kc)
			runWorkload(b, workload.KernelBuild(), cfg, kc)
		})
	}
}

// BenchmarkFastPurge measures the Section 5.1 what-if: configuration F
// with the HP 720 timing vs. an architecture providing a single-cycle
// page purge.
func BenchmarkFastPurge(b *testing.B) {
	for _, fast := range []bool{false, true} {
		fast := fast
		name := "hp720-purge"
		if fast {
			name = "single-cycle-purge"
		}
		b.Run(name, func(b *testing.B) {
			cfg := policy.New()
			kc := defaultKC(cfg)
			if fast {
				kc.Machine.Timing = sim.FastPurgeTiming()
			}
			runWorkload(b, workload.KernelBuild(), cfg, kc)
		})
	}
}

// ablationPair benches a workload under two configurations differing in
// exactly one feature.
func ablationPair(b *testing.B, w workload.Workload, off, on policy.Config) {
	b.Helper()
	b.Run("without", func(b *testing.B) { runWorkload(b, w, off, defaultKC(off)) })
	b.Run("with", func(b *testing.B) { runWorkload(b, w, on, defaultKC(on)) })
}

// BenchmarkAblationLazy isolates lazy unmap (A vs B).
func BenchmarkAblationLazy(b *testing.B) {
	ablationPair(b, workload.KernelBuild(), policy.ConfigA(), policy.ConfigB())
}

// BenchmarkAblationAlign isolates aligned address selection (B vs C).
func BenchmarkAblationAlign(b *testing.B) {
	ablationPair(b, workload.KernelBuild(), policy.ConfigB(), policy.ConfigC())
}

// BenchmarkAblationPrepare isolates aligned page preparation (C vs D).
func BenchmarkAblationPrepare(b *testing.B) {
	ablationPair(b, workload.KernelBuild(), policy.ConfigC(), policy.ConfigD())
}

// BenchmarkAblationSemantics isolates the need_data and will_overwrite
// semantic hints (D vs F).
func BenchmarkAblationSemantics(b *testing.B) {
	ablationPair(b, workload.KernelBuild(), policy.ConfigD(), policy.ConfigF())
}

// BenchmarkAblationICachePurge isolates the 720 artifact the paper
// notes in Section 5: the instruction cache purges in constant time
// regardless of contents, so lazy unmap cannot shave I-purge cost the
// way it shaves D-purge cost. "with" = per-line I-purge hardware.
func BenchmarkAblationICachePurge(b *testing.B) {
	cfg := policy.New()
	b.Run("constant-time", func(b *testing.B) {
		runWorkload(b, workload.KernelBuild(), cfg, defaultKC(cfg))
	})
	b.Run("per-line", func(b *testing.B) {
		kc := defaultKC(cfg)
		kc.Machine.ICachePerLinePurge = true
		runWorkload(b, workload.KernelBuild(), cfg, kc)
	})
}

// BenchmarkAblationColoredFreeList isolates the Section 5.1 extension
// the paper proposes: multiple (per-color) free page lists on top of
// configuration F.
func BenchmarkAblationColoredFreeList(b *testing.B) {
	off := policy.ConfigF()
	on := policy.ConfigF()
	on.Label, on.Name = "F+", "+colored free lists"
	on.Features.ColoredFreeList = true
	ablationPair(b, workload.KernelBuild(), off, on)
}
