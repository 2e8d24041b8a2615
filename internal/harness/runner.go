package harness

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"vcache/internal/policy"
	"vcache/internal/trace"
)

// Plan is an ordered list of independent runs. Order is significant:
// results always come back in plan order, whatever order the runs
// complete in.
type Plan []Spec

// Matrix builds the cross-product plan the evaluation tables use: for
// each workload (outer), each configuration (inner) — Table 1/4 row
// order.
func Matrix(ws []Workload, cfgs []policy.Config, scale Scale) Plan {
	p := make(Plan, 0, len(ws)*len(cfgs))
	for _, w := range ws {
		for _, cfg := range cfgs {
			p = append(p, Spec{Workload: w, Config: cfg, Scale: scale})
		}
	}
	return p
}

// RunError is the structured failure of one plan entry. A failure —
// whether the workload returned an error or panicked outright — never
// aborts sibling runs; it is delivered in the failed entry's Outcome.
type RunError struct {
	// Index is the entry's position in the plan.
	Index int
	// Spec is the run that failed.
	Spec Spec
	// Err is the error the run returned, if it failed by returning.
	Err error
	// PanicValue and Stack describe a recovered panic, if it failed by
	// panicking.
	PanicValue any
	Stack      string
}

func (e *RunError) Error() string {
	if e.PanicValue != nil {
		return fmt.Sprintf("harness: run %d (%s) panicked: %v", e.Index, e.Spec.Label(), e.PanicValue)
	}
	return fmt.Sprintf("harness: run %d (%s): %v", e.Index, e.Spec.Label(), e.Err)
}

// Unwrap exposes the underlying run error to errors.Is/As.
func (e *RunError) Unwrap() error { return e.Err }

// Outcome is the result of one plan entry: either a Result (plus a trace
// recorder if the Spec asked for one) or a *RunError. Phases is the
// run's wall-clock breakdown; it is observability metadata, not part of
// the deterministic Result, and is filled (possibly partially) even for
// failed entries.
type Outcome struct {
	Index  int
	Spec   Spec
	Result Result
	Trace  *trace.Recorder
	Phases Phases
	Err    error
}

// Runner executes a Plan across a pool of workers.
type Runner struct {
	// Workers is the fan-out width; <= 0 means runtime.GOMAXPROCS(0)
	// (the cmd-level -j flag maps straight onto this).
	Workers int
	// OnStart and OnDone, when set, are progress hooks. They are
	// serialized: the runner never invokes either concurrently with
	// itself or the other, so hooks may write to a shared log.
	OnStart func(index int, s Spec)
	OnDone  func(o Outcome)
	// Snapshots, when set, is the warm-boot pool: each entry boots once
	// per (config, workload, scale) key and later entries fork the
	// pooled post-setup image instead of re-booting (see Exec).
	// Safe to share across concurrent workers and runners. Nil means
	// every run cold-boots.
	Snapshots *SnapshotPool

	hookMu sync.Mutex
}

// Run executes every entry of the plan and returns the outcomes in plan
// order. It never returns early: an entry that fails or panics yields an
// Outcome with a *RunError while its siblings run to completion.
//
// Cancelling ctx aborts the plan: entries not yet started are skipped,
// and in-flight runs stop cooperatively at their next kernel operation
// (see Exec). Every affected entry still yields an Outcome, in plan
// order, whose *RunError wraps the context's error — the caller can tell
// a cancelled entry from a genuinely failed one with
// errors.Is(err, ctx.Err()).
func (r *Runner) Run(ctx context.Context, p Plan) []Outcome {
	out := make([]Outcome, len(p))
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(p) {
		workers = len(p)
	}
	if workers <= 1 {
		for i := range p {
			out[i] = r.runOne(ctx, i, p[i])
		}
		return out
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i] = r.runOne(ctx, i, p[i])
			}
		}()
	}
	// Feed until the plan is exhausted or the context dies. On
	// cancellation the unfed tail is settled right here instead of being
	// round-tripped through the workers one entry at a time — for a large
	// plan that is the difference between returning immediately and
	// draining thousands of handoffs — with outcomes identical to the
	// ones runOne produces for a cancelled entry, in plan order.
	fed := len(p)
	for i := range p {
		select {
		case idx <- i:
		case <-ctx.Done():
			fed = i
		}
		if fed < len(p) {
			break
		}
	}
	close(idx)
	wg.Wait()
	for i := fed; i < len(p); i++ {
		out[i] = r.skipped(i, p[i], ctx.Err())
	}
	return out
}

// skipped settles one plan entry that was never run because the context
// was cancelled. The outcome shape (and the OnDone delivery) is exactly
// what runOne produces when it observes the cancellation itself, so
// callers cannot tell where an entry was cut off.
func (r *Runner) skipped(i int, s Spec, err error) Outcome {
	o := Outcome{Index: i, Spec: s, Err: &RunError{Index: i, Spec: s, Err: err}}
	if r.OnDone != nil {
		r.hookMu.Lock()
		r.OnDone(o)
		r.hookMu.Unlock()
	}
	return o
}

func (r *Runner) runOne(ctx context.Context, i int, s Spec) Outcome {
	if err := ctx.Err(); err != nil {
		return r.skipped(i, s, err)
	}
	if r.OnStart != nil {
		r.hookMu.Lock()
		r.OnStart(i, s)
		r.hookMu.Unlock()
	}
	o := Outcome{Index: i, Spec: s}
	func() {
		defer func() {
			if v := recover(); v != nil {
				o.Err = &RunError{Index: i, Spec: s, PanicValue: v, Stack: string(debug.Stack())}
			}
		}()
		res, rec, ph, err := Exec(ctx, s, r.Snapshots)
		o.Phases = ph
		if err != nil {
			o.Err = &RunError{Index: i, Spec: s, Err: err}
			return
		}
		o.Result = res
		if rec != nil {
			o.Trace = rec
		}
	}()
	if r.OnDone != nil {
		r.hookMu.Lock()
		r.OnDone(o)
		r.hookMu.Unlock()
	}
	return o
}

// Results unpacks outcomes into results, in plan order. It returns the
// first error encountered (in plan order, so the choice is deterministic
// under any fan-out), and additionally rejects any run the oracle
// flagged as unclean.
func Results(outs []Outcome) ([]Result, error) {
	rs := make([]Result, len(outs))
	for i, o := range outs {
		if o.Err != nil {
			return nil, o.Err
		}
		if err := o.Result.CheckClean(); err != nil {
			return nil, err
		}
		rs[i] = o.Result
	}
	return rs, nil
}
