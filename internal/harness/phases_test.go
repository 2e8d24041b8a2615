package harness_test

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"vcache/internal/harness"
	"vcache/internal/policy"
	"vcache/internal/workload"
)

// TestExecTimedPhases: the phase spans cover the run (a non-trivial
// workload spends measurable time somewhere), and they stay out of the
// Result — timing is pure observation.
func TestExecTimedPhases(t *testing.T) {
	spec := harness.Spec{
		Workload: workload.KernelBuild(),
		Config:   policy.New(),
		Scale:    workload.Small(),
	}
	timed, _, ph, err := harness.Exec(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ph.Total() <= 0 {
		t.Errorf("phase total = %v, want > 0 (%v)", ph.Total(), ph)
	}
	if ph.Boot < 0 || ph.Setup < 0 || ph.Run < 0 || ph.Collect < 0 {
		t.Errorf("negative phase span: %v", ph)
	}
	// Result JSON must not carry the wall-clock spans: vcachesim -json
	// and the service's cached bodies stay deterministic.
	b, err := json.Marshal(timed)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"boot", "Phases", "phases"} {
		if jsonHasTopLevelField(t, b, field) {
			t.Errorf("Result JSON carries nondeterministic field %q", field)
		}
	}
}

func jsonHasTopLevelField(t *testing.T, b []byte, field string) bool {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	_, ok := m[field]
	return ok
}

// TestOutcomePhasesFilled: the runner surfaces each run's phase
// breakdown on its Outcome.
func TestOutcomePhasesFilled(t *testing.T) {
	plan := harness.Plan{
		{Workload: workload.AFSBench(), Config: policy.New(), Scale: workload.Small()},
	}
	outs := (&harness.Runner{Workers: 1}).Run(context.Background(), plan)
	if outs[0].Err != nil {
		t.Fatal(outs[0].Err)
	}
	if outs[0].Phases.Total() <= 0 {
		t.Errorf("outcome phases empty: %v", outs[0].Phases)
	}
	if outs[0].Phases.Run <= 0 {
		t.Errorf("outcome run span = %v, want > 0", outs[0].Phases.Run)
	}
}

// TestTracedRunResultIdentical: attaching a trace recorder (which also
// routes the run down the word-at-a-time reference paths) must not
// change the Result, and the recorder must capture machine-level DMA
// movement alongside the pmap's consistency events.
func TestTracedRunResultIdentical(t *testing.T) {
	spec := harness.Spec{
		Workload: workload.KernelBuild(),
		Config:   policy.New(),
		Scale:    workload.Small(),
	}
	plain, _, _, err := harness.Exec(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec.TraceN = 64
	traced, rec, _, err := harness.Exec(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil {
		t.Fatal("traced run returned no recorder")
	}
	if !reflect.DeepEqual(plain, traced) {
		t.Errorf("traced result differs from untraced result:\n%+v\nvs\n%+v", plain, traced)
	}
	if got := len(rec.Events()); got == 0 || got > 64 {
		t.Errorf("recorder retained %d events, want 1..64", got)
	}
	if rec.Total() == 0 {
		t.Error("recorder total is zero for kernel-build")
	}
	// kernel-build does real disk I/O, so the interleaved ring must
	// contain device transfers somewhere in its history.
	exp := rec.Export()
	if exp.Summary.DMAMoves == 0 && rec.Total() <= uint64(len(rec.Events())) {
		t.Error("no dma-move events recorded and nothing rotated out")
	}
}
