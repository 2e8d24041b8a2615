package workload

import (
	"fmt"
	"reflect"
	"testing"

	"vcache/internal/kernel"
	"vcache/internal/policy"
)

// TestMultiprocessor runs the full system on 2- and 4-CPU machines: the
// Section 3.3 claim is that the consistency model needs *no changes* on
// a cache-coherent multiprocessor — the hardware handles aligned copies
// (one "set" of the distributed set-associative cache), the same
// software algorithm handles everything else. The oracle checks every
// transfer on every CPU.
func TestMultiprocessor(t *testing.T) {
	for _, cpus := range []int{2, 4} {
		for _, cfg := range []policy.Config{policy.Old(), policy.New()} {
			kc := kernel.DefaultConfig(cfg)
			kc.Machine.CPUs = cpus
			// Stress: processes land on different CPUs (pid round
			// robin), the server on CPU 0; IPC and shared channels
			// cross CPUs constantly.
			r, err := Run(Stress(21, 400), cfg, Full(), kc)
			if err != nil {
				t.Fatalf("%d CPUs, %s: %v", cpus, cfg.Label, err)
			}
			if r.OracleViolations != 0 {
				t.Fatalf("%d CPUs, %s: %d stale transfers", cpus, cfg.Label, r.OracleViolations)
			}
		}
	}
}

// TestMultiprocessorBenchmarks runs kernel-build on 2 CPUs under A and
// F: correctness plus the A→F improvement both survive the move to a
// multiprocessor.
func TestMultiprocessorBenchmarks(t *testing.T) {
	run := func(cfg policy.Config) Result {
		kc := kernel.DefaultConfig(cfg)
		kc.Machine.CPUs = 2
		r, err := Run(KernelBuild(), cfg, Small(), kc)
		if err != nil {
			t.Fatal(err)
		}
		if r.OracleViolations != 0 {
			t.Fatalf("%s: %d stale transfers", cfg.Label, r.OracleViolations)
		}
		return r
	}
	old := run(policy.Old())
	new_ := run(policy.New())
	if new_.Seconds > old.Seconds*1.02 {
		t.Errorf("on 2 CPUs, F (%.3fs) lost to A (%.3fs)", new_.Seconds, old.Seconds)
	}
	if new_.PM.DFlushPages >= old.PM.DFlushPages {
		t.Errorf("on 2 CPUs, F flushes (%d) not below A (%d)", new_.PM.DFlushPages, old.PM.DFlushPages)
	}
}

// TestMPFastPathIdentity proves the multiprocessor bulk fast paths are
// exact: with the preemption scheduler migrating processes between
// CPUs, a full run with fast paths enabled must produce a Result
// deep-equal to the same run through the word-at-a-time reference path.
// The hoisted per-line peer snoops of the bulk zero and copy, and the
// per-word snoops of the strided runs, must reproduce the reference's
// cross-CPU write-backs and invalidations bit for bit — cycles, stats,
// fault counts, everything. kernel-build adds the read(2)/write(2) page
// copies and text execution the torture workload runs only rarely. Each
// pair runs with the oracle off, as perfbench's multiprocessor cell
// ships, and on, where the bulk paths also record and observe every
// word through it.
func TestMPFastPathIdentity(t *testing.T) {
	cpuCounts := []int{2, 4}
	if testing.Short() {
		cpuCounts = []int{2}
	}
	runs := []struct {
		suffix string
		w      Workload
		scale  Scale
	}{{"", Stress(17, 400), Full()}, {"/kernel-build", KernelBuild(), Small()}}
	for _, cpus := range cpuCounts {
		for _, cfg := range policy.Configs() {
			for _, r := range runs {
				t.Run(fmt.Sprintf("%s/%dcpu%s", cfg.Label, cpus, r.suffix), func(t *testing.T) {
					for _, oracle := range []bool{false, true} {
						run := func(disable bool) Result {
							kc := kernel.DefaultConfig(cfg)
							kc.Machine.CPUs = cpus
							kc.Machine.WithOracle = oracle
							kc.Machine.DisableFastPaths = disable
							kc.Sched = kernel.SchedConfig{Quantum: 20000, Seed: 3}
							res, err := Run(r.w, cfg, r.scale, kc)
							if err != nil {
								t.Fatal(err)
							}
							return res
						}
						fast, slow := run(false), run(true)
						if !reflect.DeepEqual(fast, slow) {
							t.Errorf("oracle=%t: fast-path Result differs from DisableFastPaths reference:\nfast: %+v\nslow: %+v", oracle, fast, slow)
						}
					}
				})
			}
		}
	}
}

// TestMultiprocessorPaging combines CPUs with memory pressure.
func TestMultiprocessorPaging(t *testing.T) {
	kc := kernel.DefaultConfig(policy.New())
	kc.Machine.CPUs = 2
	kc.Machine.Frames = 256
	kc.FS.Buffers = 32
	r, err := Run(Stress(33, 500), policy.New(), Full(), kc)
	if err != nil {
		t.Fatal(err)
	}
	if r.OracleViolations != 0 {
		t.Fatalf("%d stale transfers", r.OracleViolations)
	}
	if r.PageOuts == 0 {
		t.Log("note: stress did not trigger paging at this seed/memory size")
	}
}
