// Identity proof for the simulator's hot-path optimizations: with the
// oracle disabled (the benchmarking configuration, where the bulk
// zero/copy/DMA paths all engage) a run must
// produce a Result identical — field for field, including every cycle
// and every counter — to the same run forced through the word-at-a-time
// reference pipeline. Together with the golden sweep tests (which run
// oracle-on and pin the observable output of the guarded slow path),
// this is the "byte-identical before/after" acceptance bar for the fast
// paths.
package vcache

import (
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
// uncached fallback), and the paging/IPC torture workload.
func fastpathSpecs() []harness.Spec {
	scale := workload.Small()
	var specs []harness.Spec
	for _, label := range []string{"A", "D", "F", "Tut", "Sun"} {
		cfg, err := policy.ByLabel(label)
		if err != nil {
			panic(err)
		}
		specs = append(specs,
			harness.Spec{Workload: workload.KernelBuild(), Config: cfg, Scale: scale},
			harness.Spec{Workload: workload.Stress(7, 300), Config: cfg, Scale: scale},
		)
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

// TestFastPathsObservationIdentical: oracle off, fast paths on vs off —
// the Results must be deeply equal.
func TestFastPathsObservationIdentical(t *testing.T) {
	for _, s := range fastpathSpecs() {
		s := s
		t.Run(s.Label(), func(t *testing.T) {
			t.Parallel()
			fast := runWith(t, s, false, true)
			slow := runWith(t, s, false, false)
			if !reflect.DeepEqual(fast, slow) {
				t.Errorf("fast and slow paths diverge\nfast: %+v\nslow: %+v", fast, slow)
			}
		})
	}
}

// TestFastPathsMatchOracleRun: the oracle-checked run (which forces the
// bulk guards to the slow path but keeps the TLB index, the shift
// geometry and the clock changes live) must agree with the oracle-off fast run on everything except the
// oracle's own counters. This ties the benchmark configuration back to
// the checked configuration the tables are generated under.
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
