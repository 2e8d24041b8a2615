// Command vcachebench measures how fast the simulator itself runs and
// emits the result as a JSON trajectory artifact (BENCH_hotpath.json by
// default), so successive changes to the hot paths are held to a
// recorded baseline.
//
// It times three things:
//
//   - the Table 4 matrix (three benchmarks × configurations A–F) and the
//     Section 2.5 alias microbenchmark, reporting wall-clock ns and
//     simulated cycles per run (and ns per simulated megacycle, the
//     simulator's throughput);
//   - the kernel-build × F cell a second time with the fast paths
//     disabled (the word-at-a-time reference pipeline), giving the
//     speedup the bulk zero/copy/DMA paths buy;
//   - the warm-boot leg: time-to-first-measured-cycle for kernel-build
//     × F, cold (kernel construction plus workload setup) versus warm
//     (forking a frozen post-setup machine snapshot, the copy-on-write
//     image path vcached pools behind -snapshot-pool).
//
// Measurement runs execute with the oracle disabled, the benchmark
// configuration (checking every word would dominate the measurement);
// the identity tests in fastpath_test.go prove the oracle-off fast-path
// Results are identical to the checked ones, so the trajectory tracks
// the same simulations the tables report.
//
// Usage:
//
//	vcachebench                      # full scale, writes BENCH_hotpath.json
//	vcachebench -scale 0.25 -reps 5  # quicker, more samples
//	vcachebench -out - | jq .speedup_kernel_build_f
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"vcache/internal/harness"
	"vcache/internal/kernel"
	"vcache/internal/policy"
	"vcache/internal/workload"
)

// Entry is one measured cell of the trajectory.
type Entry struct {
	Name      string `json:"name"`
	Workload  string `json:"workload"`
	Config    string `json:"config"`
	FastPaths bool   `json:"fast_paths"`
	// CPUs is the simulated processor count (0 means the default
	// uniprocessor; the MP leg runs 4 with deterministic preemption).
	CPUs      int     `json:"cpus,omitempty"`
	WallNS    int64   `json:"wall_ns"`    // best-of-reps wall clock for one run
	SimCycles uint64  `json:"sim_cycles"` // simulated cycles of that run
	SimSec    float64 `json:"sim_seconds"`
	// NSPerMegacycle is wall nanoseconds per simulated megacycle — the
	// simulator's throughput, comparable across cells of different size.
	NSPerMegacycle float64 `json:"ns_per_megacycle"`
}

// Report is the BENCH_hotpath.json schema.
type Report struct {
	Schema     string  `json:"schema"`
	Scale      float64 `json:"scale"`
	Reps       int     `json:"reps"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Entries    []Entry `json:"entries"`
	// Baseline is kernel-build × F with the fast paths disabled; the
	// speedup below is its wall time over the fast entry's.
	Baseline            Entry   `json:"baseline_kernel_build_f"`
	SpeedupKernelBuildF float64 `json:"speedup_kernel_build_f"`
	// WarmBoot compares time-to-first-measured-cycle: a cold boot versus
	// forking a pooled snapshot.
	WarmBoot WarmBoot `json:"warm_boot_kernel_build_f"`
	// MP is kernel-build × F on a 4-CPU machine with deterministic
	// quantum preemption — the multiprocessor leg of the trajectory.
	MP Entry `json:"kernel_build_f_4cpu"`
}

// WarmBoot is the warm-boot leg of the trajectory: how long it takes to
// reach the first measured cycle of a run, cold (kernel.New + workload
// setup) versus warm (Snapshot.Fork of the frozen post-setup image).
// Best-of-reps on both sides.
type WarmBoot struct {
	Workload      string  `json:"workload"`
	Config        string  `json:"config"`
	ColdBootNS    int64   `json:"cold_boot_ns"`
	WarmRestoreNS int64   `json:"warm_restore_ns"`
	Speedup       float64 `json:"speedup"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("vcachebench: ")
	factor := flag.Float64("scale", 1.0, "workload scale factor")
	reps := flag.Int("reps", 3, "repetitions per cell (best wall time wins)")
	writes := flag.Int("writes", 200000, "alias microbenchmark write count")
	out := flag.String("out", "BENCH_hotpath.json", "output path ('-' for stdout)")
	flag.Parse()
	if *factor <= 0 || *reps < 1 {
		log.Fatalf("invalid -scale %g / -reps %d", *factor, *reps)
	}

	scale := workload.Scale{Name: "bench", Factor: *factor}
	rep := Report{
		Schema:     "vcache-hotpath-bench/v1",
		Scale:      *factor,
		Reps:       *reps,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}

	// Table 4 matrix, fast paths on, oracle off.
	for _, w := range workload.Benchmarks() {
		for _, cfg := range policy.Configs() {
			e := measure(w, cfg, scale, *reps, true)
			rep.Entries = append(rep.Entries, e)
			log.Printf("%-28s %10.1f ms  %12d cycles", e.Name, float64(e.WallNS)/1e6, e.SimCycles)
		}
	}

	// Section 2.5 microbenchmark (oracle on — it is itself a correctness
	// probe; its cost is dominated by the per-write consistency faults).
	for _, aligned := range []bool{true, false} {
		e, err := measureMicro(*writes, aligned, *reps)
		if err != nil {
			log.Fatal(err)
		}
		rep.Entries = append(rep.Entries, e)
		log.Printf("%-28s %10.1f ms  %12d cycles", e.Name, float64(e.WallNS)/1e6, e.SimCycles)
	}

	// The trajectory anchor: kernel-build × F against the reference
	// pipeline.
	rep.Baseline = measure(workload.KernelBuild(), mustConfig("F"), scale, *reps, false)
	log.Printf("%-28s %10.1f ms  %12d cycles", rep.Baseline.Name, float64(rep.Baseline.WallNS)/1e6, rep.Baseline.SimCycles)
	for _, e := range rep.Entries {
		if e.Name == "table4/kernel-build/F" {
			rep.SpeedupKernelBuildF = float64(rep.Baseline.WallNS) / float64(e.WallNS)
		}
	}
	log.Printf("kernel-build/F speedup: %.2fx", rep.SpeedupKernelBuildF)

	rep.WarmBoot = measureWarmBoot(scale, *reps)
	log.Printf("warm boot: cold %.1f ms, restore %.1f ms (%.1fx)",
		float64(rep.WarmBoot.ColdBootNS)/1e6, float64(rep.WarmBoot.WarmRestoreNS)/1e6, rep.WarmBoot.Speedup)

	rep.MP = measureMP(scale, *reps)
	rep.Entries = append(rep.Entries, rep.MP)
	log.Printf("%-28s %10.1f ms  %12d cycles", rep.MP.Name, float64(rep.MP.WallNS)/1e6, rep.MP.SimCycles)

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	buf = append(buf, '\n')
	if *out == "-" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		log.Fatal(err)
	}
}

func mustConfig(label string) policy.Config {
	cfg, err := policy.ByLabel(label)
	if err != nil {
		log.Fatal(err)
	}
	return cfg
}

// measure times one workload × config cell, oracle off, best of reps.
func measure(w harness.Workload, cfg policy.Config, scale workload.Scale, reps int, fast bool) Entry {
	kc := kernel.DefaultConfig(cfg)
	kc.Machine.WithOracle = false
	kc.Machine.DisableFastPaths = !fast
	spec := harness.Spec{Workload: w, Config: cfg, Scale: scale, Kernel: &kc}
	var best Entry
	for i := 0; i < reps; i++ {
		start := time.Now()
		r, _, err := harness.Exec(spec)
		wall := time.Since(start)
		if err != nil {
			log.Fatalf("%s: %v", spec.Label(), err)
		}
		if i == 0 || wall.Nanoseconds() < best.WallNS {
			best = Entry{
				Name:      "table4/" + w.Name + "/" + cfg.Label,
				Workload:  w.Name,
				Config:    cfg.Label,
				FastPaths: fast,
				WallNS:    wall.Nanoseconds(),
				SimCycles: r.Cycles,
				SimSec:    r.Seconds,
			}
		}
	}
	if !fast {
		best.Name = "baseline/" + w.Name + "/" + cfg.Label
	}
	if best.SimCycles > 0 {
		best.NSPerMegacycle = float64(best.WallNS) / (float64(best.SimCycles) / 1e6)
	}
	return best
}

// measureMP times the multiprocessor leg: kernel-build × F on 4 CPUs
// with deterministic quantum preemption (quantum 50k cycles, seed 1 —
// the same parameters cmd/tables uses), oracle off, best of reps.
func measureMP(scale workload.Scale, reps int) Entry {
	w := workload.KernelBuild()
	cfg := mustConfig("F")
	kc := kernel.DefaultConfig(cfg)
	kc.Machine.WithOracle = false
	kc.Machine.CPUs = 4
	kc.Sched = kernel.SchedConfig{Quantum: 50000, Seed: 1}
	spec := harness.Spec{Workload: w, Config: cfg, Scale: scale, Kernel: &kc}
	var best Entry
	for i := 0; i < reps; i++ {
		start := time.Now()
		r, _, err := harness.Exec(spec)
		wall := time.Since(start)
		if err != nil {
			log.Fatalf("mp leg: %v", err)
		}
		if i == 0 || wall.Nanoseconds() < best.WallNS {
			best = Entry{
				Name:      "mp/" + w.Name + "/" + cfg.Label + "/4cpu",
				Workload:  w.Name,
				Config:    cfg.Label,
				FastPaths: true,
				CPUs:      4,
				WallNS:    wall.Nanoseconds(),
				SimCycles: r.Cycles,
				SimSec:    r.Seconds,
			}
		}
	}
	if best.SimCycles > 0 {
		best.NSPerMegacycle = float64(best.WallNS) / (float64(best.SimCycles) / 1e6)
	}
	return best
}

// measureWarmBoot times time-to-first-measured-cycle for kernel-build
// × F, oracle off like every other cell: cold is one kernel
// construction plus the workload's setup phase; warm is one
// Snapshot.Fork of the frozen post-setup image. Both sides are
// best-of-reps; the snapshot is taken once and forked repeatedly,
// exactly as the vcached pool uses it.
func measureWarmBoot(scale workload.Scale, reps int) WarmBoot {
	w := workload.KernelBuild()
	cfg := mustConfig("F")
	kc := kernel.DefaultConfig(cfg)
	kc.Machine.WithOracle = false
	wb := WarmBoot{Workload: w.Name, Config: cfg.Label}
	var last *kernel.Kernel
	for i := 0; i < reps; i++ {
		start := time.Now()
		k, err := kernel.New(kc)
		if err != nil {
			log.Fatalf("warm-boot leg: boot: %v", err)
		}
		if err := w.Setup(k, scale); err != nil {
			log.Fatalf("warm-boot leg: setup: %v", err)
		}
		cold := time.Since(start).Nanoseconds()
		if i == 0 || cold < wb.ColdBootNS {
			wb.ColdBootNS = cold
		}
		last = k
	}
	snap := last.Snapshot()
	for i := 0; i < reps; i++ {
		start := time.Now()
		_ = snap.Fork()
		warm := time.Since(start).Nanoseconds()
		if i == 0 || warm < wb.WarmRestoreNS {
			wb.WarmRestoreNS = warm
		}
	}
	if wb.WarmRestoreNS > 0 {
		wb.Speedup = float64(wb.ColdBootNS) / float64(wb.WarmRestoreNS)
	}
	return wb
}

func measureMicro(writes int, aligned bool, reps int) (Entry, error) {
	name := "micro/unaligned"
	if aligned {
		name = "micro/aligned"
	}
	var best Entry
	for i := 0; i < reps; i++ {
		start := time.Now()
		r, err := workload.RunAliasMicro(policy.New(), writes, aligned)
		wall := time.Since(start)
		if err != nil {
			return Entry{}, fmt.Errorf("%s: %w", name, err)
		}
		if i == 0 || wall.Nanoseconds() < best.WallNS {
			best = Entry{
				Name:      name,
				Workload:  "alias-micro",
				Config:    r.Config.Label,
				FastPaths: true,
				WallNS:    wall.Nanoseconds(),
				SimCycles: r.Cycles,
				SimSec:    r.Seconds,
			}
		}
	}
	if best.SimCycles > 0 {
		best.NSPerMegacycle = float64(best.WallNS) / (float64(best.SimCycles) / 1e6)
	}
	return best, nil
}
