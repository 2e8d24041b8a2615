// Package fuzz searches for workload programs that exercise untested
// corners of the consistency model. It generates seeded random
// programs in the replay grammar (gen.go), runs them with a Table 2
// state×transition coverage map attached (core.Coverage) and the
// oracle as ground truth, and keeps any run that is coverage-novel —
// or, should one ever appear, any run the oracle flags. Kept runs are
// shrunk by a greedy delta-debugging minimizer (minimize.go) to small
// witnesses that still replay, then exported as replayable traces.
package fuzz

import (
	"context"
	"fmt"

	"vcache/internal/core"
	"vcache/internal/harness"
	"vcache/internal/policy"
	"vcache/internal/replay"
	"vcache/internal/sim"
	"vcache/internal/trace"
)

// Options configures a fuzzing campaign.
type Options struct {
	// Seed derives every random decision of the campaign; the same
	// options always reproduce the same campaign.
	Seed uint64
	// Budget is the maximum number of generated programs to try (the
	// handcrafted seed programs are always run and do not count).
	Budget int
	// Steps is the length of each generated program.
	Steps int
	// Configs are the policy configuration labels to fuzz under.
	// Default: A (the eager original), B (lazy unmap without alignment
	// — the only regime where dirty and stale data linger at colors an
	// operation does not target), and F (all optimizations).
	Configs []string
	// MinimizerRuns caps candidate executions per finding.
	MinimizerRuns int
	// Log, when non-nil, receives one line per campaign event.
	Log func(format string, args ...any)
}

func (o *Options) defaults() {
	if o.Budget <= 0 {
		o.Budget = 400
	}
	if o.Steps <= 0 {
		o.Steps = 120
	}
	if len(o.Configs) == 0 {
		o.Configs = []string{"A", "B", "F"}
	}
	if o.MinimizerRuns <= 0 {
		o.MinimizerRuns = 1500
	}
	if o.Log == nil {
		o.Log = func(string, ...any) {}
	}
}

// Finding is one kept, minimized program.
type Finding struct {
	// Program is the 1-minimal witness.
	Program *replay.Program
	// NewCells are the Table 2 cells this witness covered first.
	NewCells []core.Cell
	// Violating marks an oracle violation (a consistency bug in the
	// configuration under test) rather than a coverage novelty.
	Violating bool
}

// Report is the outcome of a campaign.
type Report struct {
	// Coverage is the accumulated Table 2 map across every run.
	Coverage *core.Coverage
	// Findings are the minimized witnesses, in discovery order.
	Findings []Finding
	// Tried counts generated programs executed (excluding seeds and
	// minimizer candidates); Skipped counts generated programs that
	// failed to execute.
	Tried, Skipped int
}

// runProgram executes pr on a fresh system with a private coverage map
// attached and no tracing (witness export happens separately).
func runProgram(ctx context.Context, pr *replay.Program) (harness.Result, *core.Coverage, error) {
	spec, err := pr.Spec()
	if err != nil {
		return harness.Result{}, nil, err
	}
	cov := core.NewCoverage()
	spec.TraceN = 0
	spec.RecordOps = false
	spec.Coverage = cov
	res, _, err := harness.ExecContext(ctx, spec)
	if err != nil {
		return harness.Result{}, nil, err
	}
	return res, cov, nil
}

// Witness records a replayable trace of pr: the exported artifact a
// corpus stores, re-executable with replay.Replay (or vcachesim
// -replay).
func Witness(ctx context.Context, pr *replay.Program) (trace.Export, error) {
	spec, err := pr.Spec()
	if err != nil {
		return trace.Export{}, err
	}
	spec.TraceN = 1 << 16
	spec.RecordOps = true
	_, rec, err := harness.ExecContext(ctx, spec)
	if err != nil {
		return trace.Export{}, err
	}
	return rec.Export(), nil
}

// Run executes a campaign: first the handcrafted seed programs (the
// deterministic recipes for the model's hard-to-reach cells), then
// generated programs until the budget is exhausted or the coverage map
// is full.
func Run(ctx context.Context, opts Options) (*Report, error) {
	opts.defaults()
	for _, label := range opts.Configs {
		if _, err := policy.ByLabel(label); err != nil {
			return nil, fmt.Errorf("fuzz: %w", err)
		}
	}
	rep := &Report{Coverage: core.NewCoverage()}

	try := func(pr *replay.Program, generated bool) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		res, cov, err := runProgram(ctx, pr)
		if err != nil {
			if !generated {
				// A seed program failing to execute is a bug, not bad luck.
				return fmt.Errorf("fuzz: seed program %s: %w", pr.Origin.Workload, err)
			}
			rep.Skipped++
			return nil
		}
		novel := cov.Mask() &^ rep.Coverage.Mask()
		violating := res.OracleViolations > 0
		if novel == 0 && !violating {
			rep.Coverage.Merge(cov)
			return nil
		}
		keep := func(cand *replay.Program) bool {
			r2, c2, err := runProgram(ctx, cand)
			if err != nil {
				return false
			}
			if violating {
				return r2.OracleViolations > 0
			}
			return c2.Mask()&novel == novel
		}
		min := Minimize(ctx, pr, keep, opts.MinimizerRuns)
		f := Finding{Program: min, Violating: violating}
		for _, c := range core.Cells() {
			if cov.Count(c) > 0 && rep.Coverage.Count(c) == 0 {
				f.NewCells = append(f.NewCells, c)
			}
		}
		rep.Coverage.Merge(cov)
		rep.Findings = append(rep.Findings, f)
		opts.Log("fuzz: %s: %d new cells, witness %d/%d ops (coverage %d/%d)",
			pr.Origin.Workload, len(f.NewCells), len(min.Ops), len(pr.Ops),
			rep.Coverage.Covered(), core.NumCells)
		return nil
	}

	for _, pr := range SeedPrograms(opts.Configs) {
		if err := try(pr, false); err != nil {
			return rep, err
		}
	}
	opts.Log("fuzz: seeds done: coverage %d/%d", rep.Coverage.Covered(), core.NumCells)

	rng := sim.NewRand(opts.Seed)
	for i := 0; i < opts.Budget && !rep.Coverage.Full(); i++ {
		cfg := opts.Configs[i%len(opts.Configs)]
		pr := Generate(cfg, rng.Uint64(), opts.Steps)
		rep.Tried++
		if err := try(pr, true); err != nil {
			return rep, err
		}
	}
	return rep, nil
}
