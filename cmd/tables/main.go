// Command tables regenerates the paper's measured artifacts: Table 1
// (old vs new), Table 4 (configurations A–F), Table 5 (system
// comparison), the Section 2.5 alias microbenchmark, and the Section 5.1
// overhead analysis.
//
// Every artifact is built as a declarative harness.Plan of independent
// simulations and submitted to a worker pool, so the full evaluation
// matrix fans out across cores (-j). Results come back in plan order,
// making the output byte-identical to a serial (-j 1) run.
//
// Usage:
//
//	tables               # everything
//	tables -table 1      # one table
//	tables -micro        # just the microbenchmark
//	tables -analysis     # just the Section 5.1 analysis
//	tables -sweep        # the parameter sweeps (memory size, purge cost)
//	tables -mp           # the multiprocessor table (1/2/4 CPUs × A–F)
//	tables -cpus 4       # run the standard tables on a 4-CPU machine
//	tables -configs F,RLT  # restrict Table 4 to these configuration rows
//	tables -scale 0.3    # scale the workloads down for a quick look
//	tables -j 8          # run up to 8 simulations in parallel
//	tables -v            # log per-run progress to stderr
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"vcache/internal/harness"
	"vcache/internal/kernel"
	"vcache/internal/machine"
	"vcache/internal/policy"
	"vcache/internal/replay"
	"vcache/internal/report"
	"vcache/internal/sim"
	"vcache/internal/workload"
)

// Deterministic preemption parameters for every multiprocessor run this
// command makes: migrate at most once per 50k-cycle quantum, CPU choice
// drawn from a fixed seed. Identical across invocations, so MP tables
// are byte-identical run to run.
const (
	mpQuantum = 50000
	mpSeed    = 1
)

// mpKernel builds the kernel override for an N-CPU run (nil when the
// default uniprocessor configuration applies, keeping the default
// output byte-identical to earlier versions).
func mpKernel(cpus int) *kernel.Config {
	if cpus <= 1 {
		return nil
	}
	kc := kernel.DefaultConfig(policy.New())
	kc.Machine.CPUs = cpus
	kc.Sched = kernel.SchedConfig{Quantum: mpQuantum, Seed: mpSeed}
	return &kc
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("tables: ")
	// A bad flag is one line on stderr, not the flag list; -h prints it.
	flag.CommandLine.Init("tables", flag.ContinueOnError)
	flag.CommandLine.Usage = func() {}
	table := flag.Int("table", 0, "print only this table (1, 4 or 5)")
	micro := flag.Bool("micro", false, "print only the alias microbenchmark")
	analysis := flag.Bool("analysis", false, "print only the Section 5.1 analysis")
	sweep := flag.Bool("sweep", false, "print only the parameter sweeps (memory size, purge cost)")
	mp := flag.Bool("mp", false, "print only the multiprocessor table (1/2/4 CPUs × A–F)")
	cpus := flag.Int("cpus", 1, "simulated CPU count for the standard tables (>1 adds deterministic preemption)")
	configsFlag := flag.String("configs", "", "comma-separated configuration labels for Table 4 rows (default: A-F plus the peer backend; valid: "+policy.Labels()+")")
	factor := flag.Float64("scale", 1.0, "workload scale factor (1.0 = full)")
	writes := flag.Int("writes", 200000, "alias microbenchmark write count")
	jobs := flag.Int("j", 0, "simulations to run in parallel (0 = GOMAXPROCS)")
	verbose := flag.Bool("v", false, "log per-run progress to stderr")
	if err := flag.CommandLine.Parse(os.Args[1:]); err == flag.ErrHelp {
		flag.PrintDefaults()
		return
	} else if err != nil {
		os.Exit(2)
	}

	scale := workload.Scale{Name: "custom", Factor: *factor}
	if err := scale.Validate(); err != nil {
		log.Fatalf("-scale: %v", err)
	}
	if *cpus < 1 || *cpus > machine.MaxCPUs {
		log.Fatalf("-cpus must be between 1 and %d, got %d", machine.MaxCPUs, *cpus)
	}
	if *writes < 1 {
		log.Fatalf("-writes must be at least 1, got %d", *writes)
	}
	all := !*micro && !*analysis && !*sweep && !*mp && *table == 0
	kc := mpKernel(*cpus)
	configs := table4Configs(*configsFlag)

	// Ctrl-C cancels the in-flight plan: running simulations stop at
	// their next kernel operation and surface as structured RunErrors.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	runner := &harness.Runner{Workers: *jobs}
	if *verbose {
		runner.OnStart = func(i int, s harness.Spec) { log.Printf("run %d: %s ...", i, s.Label()) }
		runner.OnDone = func(o harness.Outcome) {
			if o.Err != nil {
				log.Printf("run %d: %s FAILED: %v", o.Index, o.Spec.Label(), o.Err)
				return
			}
			log.Printf("run %d: %s done (%.3f sim-sec)", o.Index, o.Spec.Label(), o.Result.Seconds)
		}
	}

	if *sweep {
		fmt.Print(must(report.RunMemorySweepContext(ctx, runner, scale)))
		fmt.Println()
		fmt.Print(must(report.RunPurgeCostSweepContext(ctx, runner, scale)))
		return
	}

	if *mp {
		fmt.Print(tableMP(ctx, runner, scale))
		return
	}

	if all || *table == 1 {
		fmt.Print(table1(ctx, runner, scale, kc))
		fmt.Println()
	}
	if all || *table == 4 {
		fmt.Print(table4(ctx, runner, scale, kc, configs))
	}
	if all || *table == 5 {
		fmt.Print(table5(ctx, runner, kc))
		fmt.Println()
	}
	if all || *micro {
		fmt.Print(microbench(*writes))
		fmt.Println()
	}
	if all || *analysis {
		fmt.Print(analysis51(ctx, runner, scale, kc))
	}
}

// table4Configs resolves the -configs selection for Table 4. The empty
// default is the cumulative A–F series plus the peer consistency
// backends; an explicit list is resolved label by label through
// policy.ByLabel, and an unknown label aborts with the resolver's own
// error (naming the valid set) and a non-zero exit — never a silent
// fallback to some other configuration.
func table4Configs(spec string) []policy.Config {
	if spec == "" {
		return append(policy.Configs(), policy.PeerBackends()...)
	}
	var configs []policy.Config
	for _, label := range strings.Split(spec, ",") {
		cfg, err := policy.ByLabel(strings.TrimSpace(label))
		if err != nil {
			log.Fatal(err)
		}
		configs = append(configs, cfg)
	}
	return configs
}

// withKernel applies one kernel override to every spec of a plan (nil
// leaves the plan untouched — the default configuration).
func withKernel(plan harness.Plan, kc *kernel.Config) harness.Plan {
	if kc != nil {
		for i := range plan {
			plan[i].Kernel = kc
		}
	}
	return plan
}

func table1(ctx context.Context, r *harness.Runner, scale workload.Scale, kc *kernel.Config) string {
	plan := withKernel(harness.Matrix(workload.Benchmarks(), []policy.Config{policy.Old(), policy.New()}, scale), kc)
	results := mustResults(r.RunContext(ctx, plan))
	var pairs [][2]workload.Result
	for i := 0; i < len(results); i += 2 {
		pairs = append(pairs, [2]workload.Result{results[i], results[i+1]})
	}
	return report.Table1(pairs)
}

func table4(ctx context.Context, r *harness.Runner, scale workload.Scale, kc *kernel.Config, configs []policy.Config) string {
	benchmarks := workload.Benchmarks()
	plan := harness.Matrix(benchmarks, configs, scale)
	// The CXL-PCC scenario rides along as one more row group: the same
	// sharing patterns under explicit flush/purge maintenance, measured
	// beside the selected configurations on the same machine. It is a
	// replay program, so the run is exactly its published op list.
	for _, cfg := range configs {
		w, err := replay.CXLPCCWorkload(cfg.Label, scale)
		if err != nil {
			log.Fatal(err)
		}
		plan = append(plan, harness.Spec{Workload: w, Config: cfg, Scale: scale})
	}
	plan = withKernel(plan, kc)
	results := mustResults(r.RunContext(ctx, plan))
	var names []string
	var grouped [][]workload.Result
	per := len(configs)
	for i, w := range benchmarks {
		names = append(names, w.Name)
		grouped = append(grouped, results[i*per:(i+1)*per])
	}
	names = append(names, replay.CXLPCCName+" (explicit-coherence scenario)")
	grouped = append(grouped, results[len(benchmarks)*per:])
	return report.Table4(names, grouped)
}

func table5(ctx context.Context, r *harness.Runner, kc *kernel.Config) string {
	systems := append(policy.Table5Systems(), policy.PeerBackends()...)
	var plan harness.Plan
	for _, cfg := range systems {
		plan = append(plan, harness.Spec{Workload: workload.Stress(42, 1500), Config: cfg, Scale: workload.Full()})
	}
	plan = withKernel(plan, kc)
	results := mustResults(r.RunContext(ctx, plan))
	measured := make(map[string]workload.Result)
	for i, cfg := range systems {
		measured[cfg.Label] = results[i]
	}
	return report.Table5(measured)
}

// tableMP runs the multiprocessor sweep: kernel-build (the most
// process- and sharing-intensive benchmark) under every configuration
// A–F at 1, 2 and 4 simulated CPUs, with deterministic quantum
// preemption migrating processes between CPUs on the MP rows.
func tableMP(ctx context.Context, r *harness.Runner, scale workload.Scale) string {
	w := workload.KernelBuild()
	cpuCounts := []int{1, 2, 4}
	var plan harness.Plan
	for _, n := range cpuCounts {
		kc := mpKernel(n)
		for _, cfg := range policy.Configs() {
			plan = append(plan, harness.Spec{
				Name:     fmt.Sprintf("%s/%s/%dcpu", w.Name, cfg.Label, n),
				Workload: w,
				Config:   cfg,
				Scale:    scale,
				Kernel:   kc,
			})
		}
	}
	results := mustResults(r.RunContext(ctx, plan))
	per := len(policy.Configs())
	var grouped [][]workload.Result
	for i := range cpuCounts {
		grouped = append(grouped, results[i*per:(i+1)*per])
	}
	return report.TableMP(w.Name, cpuCounts, grouped)
}

// microbench runs the §2.5 alias microbenchmark: configuration F
// aligned and unaligned, then unaligned under the RLT backend and Sun's
// uncached frames, the two other answers to an unaligned alias.
func microbench(writes int) string {
	aligned, err := workload.RunAliasMicro(policy.New(), writes, true)
	if err != nil {
		log.Fatal(err)
	}
	var unaligned []workload.AliasMicroResult
	for _, cfg := range []policy.Config{policy.New(), policy.RLT(), policy.Sun()} {
		r, err := workload.RunAliasMicro(cfg, writes, false)
		if err != nil {
			log.Fatal(err)
		}
		unaligned = append(unaligned, r)
	}
	return report.Micro(aligned, unaligned...)
}

func analysis51(ctx context.Context, r *harness.Runner, scale workload.Scale, kc *kernel.Config) string {
	// For each benchmark: one run under the HP 720 timing, one under the
	// single-cycle-purge what-if profile.
	fast := kernel.DefaultConfig(policy.New())
	if kc != nil {
		fast = *kc
	}
	fast.Machine.Timing = sim.FastPurgeTiming()
	var plan harness.Plan
	for _, w := range workload.Benchmarks() {
		plan = append(plan,
			harness.Spec{Workload: w, Config: policy.New(), Scale: scale, Kernel: kc},
			harness.Spec{Workload: w, Config: policy.New(), Scale: scale, Kernel: &fast})
	}
	results := mustResults(r.RunContext(ctx, plan))
	var normal, fastRes []workload.Result
	for i := 0; i < len(results); i += 2 {
		normal = append(normal, results[i])
		fastRes = append(fastRes, results[i+1])
	}
	return report.Analysis(normal, fastRes, sim.HP720Timing().ClockHz)
}

// mustResults unpacks plan outcomes, aborting on any run error or any
// oracle-reported consistency violation.
func mustResults(outs []harness.Outcome) []workload.Result {
	results, err := harness.Results(outs)
	if err != nil {
		log.Fatal(err)
	}
	return results
}

func must(s string, err error) string {
	if err != nil {
		log.Fatal(err)
	}
	return s
}
