// Identity proof for the simulator's hot-path optimizations: a run must
// produce a Result identical — field for field, including every cycle,
// every counter and the oracle's checks — to the same run forced through
// the word-at-a-time reference pipeline (DisableFastPaths), with the
// oracle off (the benchmarking configuration) and on (the checked
// configuration the tables are generated under); and a traced run must
// export the identical event stream. Together with the golden tests
// (which pin the observable output) this is the "byte-identical
// before/after" acceptance bar for the fast paths.
package vcache

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"vcache/internal/harness"
	"vcache/internal/kernel"
	"vcache/internal/policy"
	"vcache/internal/workload"
)

// fastpathSpecs covers the paths the bulk code touches: the eager
// configuration A (release-time flushes around every prepare), the full
// lazy configuration F (WillOverwrite leaves stale lines for the bulk
// writes to hit), the Tut/Sun system variants (Sun exercises the
// uncached fallback), all three benchmarks (afs-bench and latex-paper
// are the heaviest users of the read(2)/write(2) page copy and of text
// execution) and the paging/IPC torture workload.
func fastpathSpecs() []harness.Spec {
	scale := workload.Small()
	var specs []harness.Spec
	for _, label := range []string{"A", "D", "F", "Tut", "Sun"} {
		cfg, err := policy.ByLabel(label)
		if err != nil {
			panic(err)
		}
		for _, w := range append(workload.Benchmarks(), workload.Stress(7, 300)) {
			specs = append(specs, harness.Spec{Workload: w, Config: cfg, Scale: scale})
		}
	}
	return specs
}

// runWith executes one spec with the oracle on or off and the fast paths
// enabled or disabled.
func runWith(t *testing.T, s harness.Spec, oracle, fast bool) harness.Result {
	t.Helper()
	kc := kernel.DefaultConfig(s.Config)
	kc.Machine.WithOracle = oracle
	kc.Machine.DisableFastPaths = !fast
	s.Kernel = &kc
	r, _, err := harness.Exec(s)
	if err != nil {
		t.Fatalf("%s: %v", s.Label(), err)
	}
	return r
}

// TestFastPathsObservationIdentical: fast paths on vs off, with the
// oracle off and on — the Results must be deeply equal.
func TestFastPathsObservationIdentical(t *testing.T) {
	for _, s := range fastpathSpecs() {
		s := s
		t.Run(s.Label(), func(t *testing.T) {
			t.Parallel()
			for _, oracle := range []bool{false, true} {
				fast := runWith(t, s, oracle, true)
				slow := runWith(t, s, oracle, false)
				if oracle && fast.OracleChecks == 0 {
					t.Error("oracle run performed no checks")
				}
				if !reflect.DeepEqual(fast, slow) {
					t.Errorf("oracle=%t: fast and slow paths diverge\nfast: %+v\nslow: %+v", oracle, fast, slow)
				}
			}
		})
	}
}

// TestFastPathsMatchOracleRun: the oracle-checked run must agree with
// the oracle-off run on everything except the oracle's own counters —
// checking is pure observation. Both take the fast paths, so this ties
// the benchmark configuration to the checked configuration the tables
// are generated under.
func TestFastPathsMatchOracleRun(t *testing.T) {
	for _, s := range fastpathSpecs() {
		s := s
		t.Run(s.Label(), func(t *testing.T) {
			t.Parallel()
			fast := runWith(t, s, false, true)
			checked := runWith(t, s, true, true)
			if checked.OracleChecks == 0 {
				t.Error("oracle run performed no checks")
			}
			checked.OracleChecks = 0
			checked.OracleViolations = 0
			if !reflect.DeepEqual(fast, checked) {
				t.Errorf("oracle-off fast run diverges from oracle-checked run\nfast:    %+v\nchecked: %+v", fast, checked)
			}
		})
	}
}

// TestFastPathsTraceIdentical: a traced, op-recorded, oracle-checked run
// exports the same event stream — every consistency event with its
// cycle stamp, every DMA move and every op — with the fast paths on as
// with DisableFastPaths, on one CPU and on two. The ring holds the whole
// stream, so nothing is compared through a window.
func TestFastPathsTraceIdentical(t *testing.T) {
	for _, s := range fastpathSpecs() {
		for _, cpus := range []int{1, 2} {
			s := s
			t.Run(fmt.Sprintf("%s/%dcpu", s.Label(), cpus), func(t *testing.T) {
				t.Parallel()
				export := func(fast bool) []byte {
					kc := kernel.DefaultConfig(s.Config)
					kc.Machine.CPUs = cpus
					kc.Machine.DisableFastPaths = !fast
					s.Kernel = &kc
					s.TraceN = 1 << 15
					s.RecordOps = true
					_, rec, err := harness.Exec(s)
					if err != nil {
						t.Fatalf("%s: %v", s.Label(), err)
					}
					exp := rec.Export()
					if exp.Dropped != 0 {
						t.Fatalf("ring dropped %d of %d events", exp.Dropped, exp.Total)
					}
					b, err := json.Marshal(exp)
					if err != nil {
						t.Fatal(err)
					}
					return b
				}
				if fast, slow := export(true), export(false); !bytes.Equal(fast, slow) {
					t.Errorf("traced exports differ: fast %d bytes, reference %d bytes", len(fast), len(slow))
				}
			})
		}
	}
}
