package harness_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"vcache/internal/harness"
	"vcache/internal/kernel"
	"vcache/internal/policy"
	"vcache/internal/report"
	"vcache/internal/vm"
	"vcache/internal/workload"
)

// TestParallelMatchesSerial is the harness's core guarantee: executing
// the full A–F × 3-benchmark evaluation matrix across a worker pool
// yields results — and rendered table output — byte-identical to serial
// execution. Each Spec boots its own kernel and the simulator has no
// mutable package-level state, so fan-out must be invisible.
func TestParallelMatchesSerial(t *testing.T) {
	benchmarks := workload.Benchmarks()
	configs := policy.Configs()
	plan := harness.Matrix(benchmarks, configs, workload.Small())
	if len(plan) != len(benchmarks)*len(configs) {
		t.Fatalf("matrix has %d entries, want %d", len(plan), len(benchmarks)*len(configs))
	}

	serial, err := harness.Results((&harness.Runner{Workers: 1}).Run(context.Background(), plan))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := harness.Results((&harness.Runner{Workers: 8}).Run(context.Background(), plan))
	if err != nil {
		t.Fatal(err)
	}

	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("run %d (%s): parallel result differs from serial:\nserial:   %+v\nparallel: %+v",
				i, plan[i].Label(), serial[i], parallel[i])
		}
	}

	// The rendered artifact must be byte-identical too.
	group := func(rs []harness.Result) (names []string, grouped [][]workload.Result) {
		per := len(configs)
		for i, w := range benchmarks {
			names = append(names, w.Name)
			grouped = append(grouped, rs[i*per:(i+1)*per])
		}
		return
	}
	sn, sg := group(serial)
	pn, pg := group(parallel)
	st, pt := report.Table4(sn, sg), report.Table4(pn, pg)
	if st != pt {
		t.Errorf("Table 4 output differs between serial and parallel execution:\n--- serial ---\n%s\n--- parallel ---\n%s", st, pt)
	}
}

// TestPlanOrderIndependentOfCompletionOrder: a plan whose first entry is
// much slower than its last still returns outcomes in plan order.
func TestPlanOrderIndependentOfCompletionOrder(t *testing.T) {
	plan := harness.Plan{
		{Workload: workload.KernelBuild(), Config: policy.New(), Scale: workload.Small()},
		{Workload: workload.Stress(3, 40), Config: policy.New(), Scale: workload.Full()},
		{Workload: workload.Stress(4, 20), Config: policy.Old(), Scale: workload.Full()},
	}
	outs := (&harness.Runner{Workers: 3}).Run(context.Background(), plan)
	for i, o := range outs {
		if o.Index != i {
			t.Errorf("outcome %d carries index %d", i, o.Index)
		}
		if o.Err != nil {
			t.Fatalf("run %d: %v", i, o.Err)
		}
		if o.Result.Workload != plan[i].Workload.Name {
			t.Errorf("outcome %d is %q, want %q (plan order violated)", i, o.Result.Workload, plan[i].Workload.Name)
		}
	}
}

// TestPanicBecomesRunError: a panicking workload surfaces as a
// structured *RunError carrying the panic value and stack, and does not
// abort sibling runs.
func TestPanicBecomesRunError(t *testing.T) {
	boom := harness.Workload{
		Name: "boom",
		Run:  func(k *kernel.Kernel, s harness.Scale) error { panic("kaboom") },
	}
	plan := harness.Plan{
		{Workload: workload.Stress(1, 30), Config: policy.New(), Scale: workload.Full()},
		{Workload: boom, Config: policy.New(), Scale: workload.Small()},
		{Workload: workload.Stress(2, 30), Config: policy.Old(), Scale: workload.Full()},
	}
	outs := (&harness.Runner{Workers: 3}).Run(context.Background(), plan)

	for _, i := range []int{0, 2} {
		if outs[i].Err != nil {
			t.Errorf("sibling run %d failed: %v", i, outs[i].Err)
		}
		if outs[i].Result.OracleChecks == 0 {
			t.Errorf("sibling run %d did no work", i)
		}
	}

	var re *harness.RunError
	if !errors.As(outs[1].Err, &re) {
		t.Fatalf("run 1 error is %T (%v), want *RunError", outs[1].Err, outs[1].Err)
	}
	if re.PanicValue != "kaboom" {
		t.Errorf("PanicValue = %v, want kaboom", re.PanicValue)
	}
	if re.Index != 1 {
		t.Errorf("Index = %d, want 1", re.Index)
	}
	if !strings.Contains(re.Stack, "harness_test") {
		t.Errorf("stack trace does not reach the panicking workload:\n%s", re.Stack)
	}
	if !strings.Contains(re.Error(), "boom/F") || !strings.Contains(re.Error(), "panicked") {
		t.Errorf("Error() = %q, want label and panic marker", re.Error())
	}

	// Results must refuse the plan as a whole.
	if _, err := harness.Results(outs); err == nil {
		t.Error("Results accepted a plan containing a panicked run")
	}
}

// TestErrorBecomesRunError: an ordinary workload error is wrapped in a
// *RunError that unwraps to the original.
func TestErrorBecomesRunError(t *testing.T) {
	sentinel := errors.New("compiler segfaulted")
	bad := harness.Workload{
		Name: "bad",
		Run:  func(k *kernel.Kernel, s harness.Scale) error { return sentinel },
	}
	outs := (&harness.Runner{Workers: 1}).Run(context.Background(), harness.Plan{{Workload: bad, Config: policy.New(), Scale: workload.Small()}})
	if !errors.Is(outs[0].Err, sentinel) {
		t.Errorf("outcome error %v does not unwrap to the workload error", outs[0].Err)
	}
}

// TestSetupExcludedFromMeasurement: the VM-layer counters (including
// paging activity) are reset between setup and the timed phase, so a
// heavy setup leaves no trace in the measured Result.
func TestSetupExcludedFromMeasurement(t *testing.T) {
	w := harness.Workload{
		Name: "setup-only",
		Setup: func(k *kernel.Kernel, s harness.Scale) error {
			p, err := k.Spawn(nil, 0, 8)
			if err != nil {
				return err
			}
			for pg := uint64(0); pg < 8; pg++ {
				if err := k.TouchHeap(p, pg, 16); err != nil {
					return err
				}
			}
			k.Exit(p)
			return nil
		},
		// No timed phase at all.
	}
	r, _, _, err := harness.Exec(context.Background(), harness.Spec{Workload: w, Config: policy.New(), Scale: workload.Small()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.VM != (vm.Stats{}) {
		t.Errorf("setup-phase VM counters leaked into the result: %+v", r.VM)
	}
	if r.PageOuts != 0 || r.SwapIns != 0 || r.TextDrops != 0 {
		t.Errorf("setup-phase paging activity leaked: %d pageouts, %d swap-ins, %d text drops",
			r.PageOuts, r.SwapIns, r.TextDrops)
	}
	if r.Cycles != 0 {
		t.Errorf("setup-phase cycles leaked: %d", r.Cycles)
	}
}

// TestSpecOverrides: Kernel and Timing overrides reach the booted
// system, and the shared kernel.Config value is not mutated.
func TestSpecOverrides(t *testing.T) {
	kc := kernel.DefaultConfig(policy.Old())
	kc.Machine.Frames = 512
	orig := kc

	spec := harness.Spec{
		Workload: workload.LatexPaper(),
		Config:   policy.New(), // must win over the Old policy inside kc
		Scale:    harness.Scale{Name: "tiny", Factor: 0.05},
		Kernel:   &kc,
	}
	r, _, _, err := harness.Exec(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Config.Label != "F" {
		t.Errorf("result config = %s, want F (Spec.Config must override Kernel.Policy)", r.Config.Label)
	}
	if kc != orig {
		t.Error("Exec mutated the caller's kernel.Config")
	}
}

// TestTracePlumbing: a Spec with TraceN returns a recorder through the
// Outcome, and specs without one return none.
func TestTracePlumbing(t *testing.T) {
	plan := harness.Plan{
		{Workload: workload.Stress(9, 60), Config: policy.New(), Scale: workload.Full(), TraceN: 32},
		{Workload: workload.Stress(9, 60), Config: policy.New(), Scale: workload.Full()},
	}
	outs := (&harness.Runner{Workers: 2}).Run(context.Background(), plan)
	if outs[0].Err != nil || outs[1].Err != nil {
		t.Fatalf("runs failed: %v / %v", outs[0].Err, outs[1].Err)
	}
	if outs[0].Trace == nil || len(outs[0].Trace.Events()) == 0 {
		t.Error("traced run returned no events")
	}
	if outs[1].Trace != nil {
		t.Error("untraced run returned a recorder")
	}
}

// TestProgressHooks: OnStart and OnDone fire exactly once per entry and
// are serialized (the shared slice below would trip the race detector
// otherwise).
func TestProgressHooks(t *testing.T) {
	plan := harness.Matrix([]harness.Workload{workload.Stress(5, 30)}, policy.Configs(), workload.Full())
	var events []string
	r := &harness.Runner{
		Workers: 4,
		OnStart: func(i int, s harness.Spec) { events = append(events, fmt.Sprintf("start %d", i)) },
		OnDone:  func(o harness.Outcome) { events = append(events, fmt.Sprintf("done %d", o.Index)) },
	}
	if _, err := harness.Results(r.Run(context.Background(), plan)); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2*len(plan) {
		t.Errorf("hooks fired %d times, want %d", len(events), 2*len(plan))
	}
}

// TestScaleN covers the sizing helper's floor.
func TestScaleN(t *testing.T) {
	if n := (harness.Scale{Factor: 0.001}).N(100); n != 1 {
		t.Errorf("tiny scale N = %d, want floor of 1", n)
	}
	if n := (harness.Scale{Factor: 1.0}).N(100); n != 100 {
		t.Errorf("full scale N = %d, want 100", n)
	}
}

// TestScaleValidate: non-finite, non-positive and overflowing factors are
// rejected; ordinary ones pass, and the largest accepted one keeps N from
// overflowing for a base as large as math.MaxInt32.
func TestScaleValidate(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1, 1e300, 1 << 32} {
		if err := (harness.Scale{Factor: f}).Validate(); err == nil {
			t.Errorf("Validate accepted factor %g", f)
		}
	}
	for _, f := range []float64{0.001, 0.05, 1, 1e6, 1 << 31} {
		if err := (harness.Scale{Factor: f}).Validate(); err != nil {
			t.Errorf("Validate rejected factor %g: %v", f, err)
		}
	}
	if n := (harness.Scale{Factor: 1 << 31}).N(math.MaxInt32); n <= 0 {
		t.Errorf("largest accepted factor overflowed N: %d", n)
	}
}
