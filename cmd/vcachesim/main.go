// Command vcachesim runs one benchmark workload under one consistency
// configuration on the simulated HP 9000/720 and prints the full
// statistics breakdown.
//
// With -json the complete workload.Result is emitted as a JSON object
// instead of the human-readable breakdown, for scripting; failures
// (unknown workload or configuration, invalid flags, run errors) are
// emitted as a JSON error object `{"error": "..."}` with a non-zero
// exit, so scripted callers always parse one JSON value from stdout.
//
// Usage:
//
//	vcachesim -workload kernel-build -config F
//	vcachesim -workload afs-bench -config Sun -scale 0.5
//	vcachesim -workload latex-paper -config F -json | jq .Seconds
//	vcachesim -workload kernel-build -config F -trace-json trace.json
//	vcachesim -workload kernel-build -config F -phases
//	vcachesim -workload kernel-build -config F -warm-boot -phases
//	vcachesim -workload afs-bench -config F -record run.json
//	vcachesim -replay run.json
//	vcachesim -workload kernel-build -config F -cpus 4
//	vcachesim -list
//
// -cpus N > 1 simulates an N-processor machine (per-CPU caches and
// TLBs, hardware coherence for aligned copies) with a deterministic
// preemption scheduler migrating processes between CPUs every -quantum
// cycles; -sched-seed picks the interleaving. The same flags and
// defaults as `tables -cpus`, so single runs reproduce table rows.
//
// -trace-json writes the run's consistency-event ring as structured
// JSON (the same wire form vcached returns for a traced /run request);
// -phases prints the wall-clock boot/setup/restore/run/collect breakdown
// to stderr, leaving stdout byte-identical to an untimed run. -warm-boot
// runs the measured phase on a fork of a post-setup machine snapshot
// instead of the booted kernel itself — the restore span in -phases is
// the warm-boot cost, and the result is identical either way.
//
// -record FILE runs with operation recording on and writes the exported
// trace — a re-executable program — to FILE. -replay FILE re-executes
// such an export on a fresh system, verifies the closure property (the
// replayed run re-exports byte-identical JSON), and prints the replayed
// result; it takes no -workload/-config, those come from the recording.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"vcache/internal/harness"
	"vcache/internal/kernel"
	"vcache/internal/machine"
	"vcache/internal/policy"
	"vcache/internal/replay"
	"vcache/internal/sim"
	"vcache/internal/trace"
	"vcache/internal/workload"
)

// maxTraceEvents bounds the -trace ring, which is allocated up front.
// A full-scale recording keeps a few tens of thousands of events.
const maxTraceEvents = 1 << 20

func main() {
	log.SetFlags(0)
	log.SetPrefix("vcachesim: ")
	name := flag.String("workload", "kernel-build", "benchmark to run (see -list)")
	cfgName := flag.String("config", "F", "configuration label, one of: "+policy.Labels())
	factor := flag.Float64("scale", 1.0, "workload scale factor")
	list := flag.Bool("list", false, "list workloads and configurations")
	traceN := flag.Int("trace", 0, "print the last N consistency events of the run")
	traceJSON := flag.String("trace-json", "", `write the structured trace as JSON to this file ("-" = stdout); implies -trace 256 when -trace is unset`)
	phases := flag.Bool("phases", false, "print the wall-clock phase breakdown (boot/setup/restore/run/collect) to stderr")
	warm := flag.Bool("warm-boot", false, "snapshot the booted machine and run the measured phase from a fork (the result is identical; see -phases for the restore span)")
	cpus := flag.Int("cpus", 1, "processor count (Section 3.3 multiprocessor mode)")
	quantum := flag.Uint64("quantum", 50000, "preemption quantum in cycles for -cpus > 1 (0 = pin processes to their spawn CPUs)")
	schedSeed := flag.Uint64("sched-seed", 1, "seed for the deterministic preemption scheduler's CPU choice")
	jsonOut := flag.Bool("json", false, "emit the full result as JSON")
	record := flag.String("record", "", "record the run's operations and write the replayable trace export to this file")
	replayFile := flag.String("replay", "", "re-execute a recorded trace export, verify closure, and print its result")
	flag.Parse()
	if *traceJSON != "" && *traceN == 0 {
		*traceN = 256
	}
	if *record != "" && *traceN == 0 {
		*traceN = 1 << 16
	}

	if *list {
		fmt.Println("workloads:")
		for _, w := range workload.Benchmarks() {
			fmt.Printf("  %s\n", w.Name)
		}
		fmt.Println("configurations:")
		for _, c := range policy.All() {
			fmt.Printf("  %-7s %s\n", c.Label, c.Name)
		}
		return
	}

	fail := func(err error) {
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			_ = enc.Encode(map[string]string{"error": err.Error()})
			os.Exit(1)
		}
		log.Fatal(err)
	}

	if *replayFile != "" {
		res, err := runReplay(*replayFile)
		if err != nil {
			fail(err)
		}
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(res); err != nil {
				log.Fatal(err)
			}
		} else {
			printResult(res)
		}
		return
	}

	if *cpus < 1 || *cpus > machine.MaxCPUs {
		fail(fmt.Errorf("-cpus must be between 1 and %d, got %d", machine.MaxCPUs, *cpus))
	}
	if *traceN < 0 || *traceN > maxTraceEvents {
		fail(fmt.Errorf("-trace must be between 0 and %d, got %d", maxTraceEvents, *traceN))
	}
	w, err := workload.ByName(*name)
	if err != nil {
		fail(err)
	}
	spec, err := harness.Resolve(trace.Origin{Workload: w.Name, Config: *cfgName, Scale: "custom", Factor: *factor, CPUs: *cpus}, w)
	if err != nil {
		fail(err)
	}
	if *cpus > 1 && *quantum > 0 {
		// Deterministic quantum preemption: processes migrate between
		// CPUs during the measured phase (recorded as "sched" ops when
		// -record is on, so replays reproduce the exact interleaving).
		spec.Kernel.Sched = kernel.SchedConfig{Quantum: *quantum, Seed: *schedSeed}
	}
	spec.TraceN = *traceN
	spec.RecordOps = *record != ""
	// Open the trace destinations before the run, so an unwritable path
	// fails through fail (under -json, one error object and nothing
	// else on stdout) instead of after the result is printed.
	traceOut, err := createOutput(*traceJSON)
	if err != nil {
		fail(err)
	}
	recordOut, err := createOutput(*record)
	if err != nil {
		fail(err)
	}
	// With -warm-boot the run goes through a one-slot snapshot pool: the
	// boot is snapshotted post-setup and the measured phase executes on a
	// fork — the restore span shows up in -phases, the result does not
	// change (the snapshot identity tests prove it byte-identical).
	var pool *harness.SnapshotPool
	if *warm {
		pool = harness.NewSnapshotPool(1)
	}
	r, recorder, ph, err := harness.ExecTimedPool(context.Background(), spec, pool)
	if err != nil {
		fail(err)
	}
	// Phases go to stderr: stdout carries only the (deterministic) result,
	// so -json output stays byte-identical run to run.
	if *phases {
		fmt.Fprintf(os.Stderr, "phases: %v total=%v\n", ph, ph.Total())
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r); err != nil {
			log.Fatal(err)
		}
	} else {
		printResult(r)
	}
	if *traceN > 0 && recorder != nil && !*jsonOut && *traceJSON == "" && *record == "" {
		fmt.Printf("\nlast %d consistency events:\n", len(recorder.Events()))
		if err := recorder.Dump(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
	if traceOut != nil {
		if err := writeTraceJSON(traceOut, recorder); err != nil {
			log.Fatal(err)
		}
	}
	if recordOut != nil {
		if err := writeTraceJSON(recordOut, recorder); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "recorded %d ops to %s\n", countOps(recorder.Export()), *record)
	}
	if r.OracleViolations != 0 {
		fmt.Fprintf(os.Stderr, "CONSISTENCY VIOLATIONS: %d stale transfers observed\n", r.OracleViolations)
		os.Exit(1)
	}
}

// runReplay re-executes a recorded trace export on a fresh system and
// verifies the closure property: the replayed run must re-export
// byte-identical trace JSON. Determinism makes this a full integrity
// check of both the recording and the simulator.
func runReplay(path string) (workload.Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return workload.Result{}, err
	}
	var ex trace.Export
	if err := json.Unmarshal(data, &ex); err != nil {
		return workload.Result{}, fmt.Errorf("parse %s: %w", path, err)
	}
	res, got, err := replay.Replay(context.Background(), ex)
	if err != nil {
		return workload.Result{}, err
	}
	if err := replay.CompareExports(ex, got); err != nil {
		return workload.Result{}, fmt.Errorf("closure violated: %w", err)
	}
	fmt.Fprintf(os.Stderr, "replayed %d ops (%s, config %s); re-exported trace is byte-identical\n",
		countOps(ex), ex.Origin.Workload, ex.Origin.Config)
	return res, nil
}

// countOps counts the recorded operations (EvOp events) in an export.
func countOps(ex trace.Export) int {
	n := 0
	for _, e := range ex.Events {
		if e.Kind == trace.EvOp {
			n++
		}
	}
	return n
}

// createOutput opens a -trace-json or -record destination: nil for no
// path, stdout for "-", otherwise the created file.
func createOutput(path string) (*os.File, error) {
	switch path {
	case "":
		return nil, nil
	case "-":
		return os.Stdout, nil
	}
	return os.Create(path)
}

// writeTraceJSON emits the recorder's structured export — the same wire
// form the service returns for a traced /run request — to out, and
// closes out unless it is stdout.
func writeTraceJSON(out *os.File, recorder *trace.Recorder) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	err := enc.Encode(recorder.Export())
	if out != os.Stdout {
		if cerr := out.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

func printResult(r workload.Result) {
	fmt.Printf("workload:  %s\n", r.Workload)
	fmt.Printf("config:    %s (%s)\n", r.Config.Label, r.Config.Name)
	fmt.Printf("elapsed:   %.3f simulated seconds (%d cycles)\n\n", r.Seconds, r.Cycles)

	fmt.Println("cycles by category:")
	cats := []sim.Category{sim.CatAccess, sim.CatFlush, sim.CatPurge, sim.CatFault, sim.CatDMA, sim.CatCompute}
	if r.CyclesBy[sim.CatRLT]+r.CyclesBy[sim.CatRLTEvict] > 0 {
		cats = append(cats, sim.CatRLT, sim.CatRLTEvict)
	}
	for _, cat := range cats {
		c := r.CyclesBy[cat]
		fmt.Printf("  %-9s %12d (%5.1f%%)\n", cat, c, pct(c, r.Cycles))
	}

	s := r.PM
	fmt.Println("\nfaults:")
	fmt.Printf("  mapping      %8d\n", s.MappingFaults)
	fmt.Printf("  consistency  %8d\n", s.ConsistencyFaults)
	fmt.Printf("  modify       %8d\n", s.ModifyFaults)

	fmt.Println("\ncache management:")
	fmt.Printf("  dcache flushes  %8d (avg %4d cyc)\n", s.DFlushPages, avg(s.DFlushCycles, s.DFlushPages))
	fmt.Printf("  dcache purges   %8d (avg %4d cyc)\n", s.DPurgePages, avg(s.DPurgeCycles, s.DPurgePages))
	fmt.Printf("  icache purges   %8d (avg %4d cyc)\n", s.IPurgePages, avg(s.IPurgeCycles, s.IPurgePages))
	fmt.Printf("  DMA-read flushes  %6d\n", s.DMAReadFlushes)
	fmt.Printf("  DMA-write purges  %6d\n", s.DMAWritePurges)
	fmt.Printf("  new-mapping purges %5d\n", s.NewMappingPurges)
	fmt.Printf("  d→i copies      %8d\n", s.DToICopies)
	fmt.Printf("  zero-fills      %8d\n", s.ZeroFills)
	fmt.Printf("  page copies     %8d\n", s.PageCopies)

	if counters := s.BackendCounters(r.Config.Features.Backend); counters != nil {
		fmt.Printf("\nbackend %s:\n", r.Config.Features.Backend)
		for _, c := range counters {
			fmt.Printf("  %-15s %8d\n", c.Name, c.Value)
		}
	}

	fmt.Println("\nI/O:")
	fmt.Printf("  disk reads   %8d\n", r.Disk.Reads)
	fmt.Printf("  disk writes  %8d\n", r.Disk.Writes)
	fmt.Printf("  buffer hits  %8d\n", r.FS.Hits)
	fmt.Printf("  buffer misses %7d\n", r.FS.Misses)

	fmt.Println("\nserver:")
	fmt.Printf("  transactions %8d\n", r.Server.Transactions)
	fmt.Printf("  aligned channels %4d of %d\n", r.Server.AlignedChannels, r.Server.Attaches)

	fmt.Println("\noracle:")
	fmt.Printf("  transfers checked  %10d\n", r.OracleChecks)
	fmt.Printf("  stale transfers    %10d\n", r.OracleViolations)
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b) * 100
}

func avg(c, n uint64) uint64 {
	if n == 0 {
		return 0
	}
	return c / n
}
