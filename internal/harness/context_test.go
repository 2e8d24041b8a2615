package harness_test

import (
	"context"
	"errors"
	"testing"

	"vcache/internal/harness"
	"vcache/internal/kernel"
	"vcache/internal/policy"
	"vcache/internal/workload"
)

// TestRunContextCancelledBeforeStart: a plan submitted under an
// already-cancelled context yields a structured RunError per entry, each
// satisfying errors.Is(err, context.Canceled), and runs nothing.
func TestRunContextCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	plan := harness.Matrix(workload.Benchmarks(), []policy.Config{policy.New()}, workload.Small())
	outs := (&harness.Runner{Workers: 4}).Run(ctx, plan)
	if len(outs) != len(plan) {
		t.Fatalf("got %d outcomes, want %d", len(outs), len(plan))
	}
	for i, o := range outs {
		var re *harness.RunError
		if !errors.As(o.Err, &re) {
			t.Fatalf("entry %d: error %v is not a *RunError", i, o.Err)
		}
		if re.Index != i {
			t.Errorf("entry %d: RunError.Index = %d", i, re.Index)
		}
		if !errors.Is(o.Err, context.Canceled) {
			t.Errorf("entry %d: error %v does not unwrap to context.Canceled", i, o.Err)
		}
	}
}

// TestExecContextCancelsMidRun: cancelling the context while the timed
// phase is inside the kernel aborts the run at the next syscall boundary
// — the cooperative cancellation the service's run deadlines rely on.
// It holds cold and warm: the first pooled run already times a fork of
// the image it booted, so the fork must carry the interrupt too. The
// workload cancels its own context partway through, so the test is
// fully deterministic.
func TestExecContextCancelsMidRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		pool *harness.SnapshotPool
	}{{"cold", nil}, {"warm", harness.NewSnapshotPool(1)}} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			steps := 0
			w := harness.Workload{
				Name: "self-cancelling",
				Run: func(k *kernel.Kernel, s harness.Scale) error {
					p, err := k.Spawn(nil, 0, 8)
					if err != nil {
						return err
					}
					for i := 0; i < 100; i++ {
						if i == 5 {
							cancel()
						}
						if err := k.TouchHeap(p, uint64(i%8), 4); err != nil {
							return err
						}
						steps++
					}
					return nil
				},
			}
			_, _, ph, err := harness.Exec(ctx, harness.Spec{Workload: w, Config: policy.New(), Scale: workload.Small()}, tc.pool)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("mid-run cancel: error %v, want context.Canceled", err)
			}
			if steps != 5 {
				t.Fatalf("workload took %d steps after cancellation point, want exactly 5", steps)
			}
			if warm := ph.Restore > 0; warm != (tc.pool != nil) {
				t.Fatalf("phases %v: timed phase ran on a fork = %v, want %v", ph, warm, tc.pool != nil)
			}
		})
	}
}

// TestRunContextCancelSkipsRemaining: cancelling after the first entry
// starts leaves later entries unrun, each with a RunError, while results
// stay in plan order.
func TestRunContextCancelSkipsRemaining(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ran := make([]bool, 4)
	var plan harness.Plan
	for i := 0; i < 4; i++ {
		i := i
		plan = append(plan, harness.Spec{
			Name: "entry",
			Workload: harness.Workload{
				Name: "cancel-after-first",
				Run: func(k *kernel.Kernel, s harness.Scale) error {
					ran[i] = true
					cancel()
					return nil
				},
			},
			Config: policy.New(),
			Scale:  workload.Small(),
		})
	}
	outs := (&harness.Runner{Workers: 1}).Run(ctx, plan)
	if !ran[0] {
		t.Fatal("first entry never ran")
	}
	if outs[0].Err != nil {
		t.Fatalf("first entry failed: %v", outs[0].Err)
	}
	for i := 1; i < 4; i++ {
		if ran[i] {
			t.Errorf("entry %d ran after cancellation", i)
		}
		if !errors.Is(outs[i].Err, context.Canceled) {
			t.Errorf("entry %d: error %v, want context.Canceled", i, outs[i].Err)
		}
	}
}

// TestRunContextCancelledLargePlanSettles: a cancelled context settles a
// large plan without running, or even starting, a single entry — the
// feeder short-circuits instead of round-tripping every index through a
// worker — while preserving the per-entry RunError contract: one
// outcome per entry, in plan order, each unwrapping to context.Canceled,
// with OnDone delivered exactly once per entry and OnStart never.
func TestRunContextCancelledLargePlanSettles(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	const n = 5000
	ran := make([]bool, n)
	var plan harness.Plan
	for i := 0; i < n; i++ {
		i := i
		plan = append(plan, harness.Spec{
			Workload: harness.Workload{
				Name: "never-runs",
				Run: func(k *kernel.Kernel, s harness.Scale) error {
					ran[i] = true
					return nil
				},
			},
			Config: policy.New(),
			Scale:  workload.Small(),
		})
	}
	var started, done int
	doneFor := make([]int, n)
	r := &harness.Runner{
		Workers: 8,
		OnStart: func(index int, s harness.Spec) { started++ },
		// Hooks are serialized by the runner, so plain increments are safe.
		OnDone: func(o harness.Outcome) { done++; doneFor[o.Index]++ },
	}
	outs := r.Run(ctx, plan)
	if len(outs) != n {
		t.Fatalf("got %d outcomes, want %d", len(outs), n)
	}
	for i, o := range outs {
		if o.Index != i {
			t.Fatalf("outcome %d has Index %d: plan order broken", i, o.Index)
		}
		if !errors.Is(o.Err, context.Canceled) {
			t.Fatalf("entry %d: error %v, want context.Canceled", i, o.Err)
		}
		if ran[i] {
			t.Fatalf("entry %d ran under a cancelled context", i)
		}
		if doneFor[i] != 1 {
			t.Fatalf("entry %d: OnDone fired %d times, want 1", i, doneFor[i])
		}
	}
	if started != 0 {
		t.Errorf("OnStart fired %d times under a cancelled context, want 0", started)
	}
	if done != n {
		t.Errorf("OnDone fired %d times, want %d", done, n)
	}
}

// TestRunContextMidPlanCancelOutcomes: cancelling partway through a
// fanned-out plan leaves every entry with a well-formed outcome — a
// clean Result for entries that completed, a context.Canceled RunError
// for the rest — with OnDone delivered exactly once per entry whether
// the entry was cut off in a worker or settled by the feeder.
func TestRunContextMidPlanCancelOutcomes(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 200
	var plan harness.Plan
	for i := 0; i < n; i++ {
		i := i
		plan = append(plan, harness.Spec{
			Workload: harness.Workload{
				Name: "cancel-at-ten",
				Run: func(k *kernel.Kernel, s harness.Scale) error {
					if i == 10 {
						cancel()
					}
					return nil
				},
			},
			Config: policy.New(),
			Scale:  workload.Small(),
		})
	}
	doneFor := make([]int, n)
	r := &harness.Runner{
		Workers: 4,
		OnDone:  func(o harness.Outcome) { doneFor[o.Index]++ },
	}
	outs := r.Run(ctx, plan)
	cancelled := 0
	for i, o := range outs {
		if o.Index != i {
			t.Fatalf("outcome %d has Index %d: plan order broken", i, o.Index)
		}
		if o.Err != nil {
			if !errors.Is(o.Err, context.Canceled) {
				t.Fatalf("entry %d: error %v, want context.Canceled or success", i, o.Err)
			}
			cancelled++
		}
		if doneFor[i] != 1 {
			t.Fatalf("entry %d: OnDone fired %d times, want 1", i, doneFor[i])
		}
	}
	if cancelled == 0 {
		t.Error("no entry was cancelled: the cancellation never bit")
	}
}
