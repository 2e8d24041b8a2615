package fuzz

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"vcache/internal/harness"
	"vcache/internal/policy"
	"vcache/internal/replay"
	"vcache/internal/sim"
)

// Differential fuzzing of the fast paths: every program runs twice on
// the oracle-checked system its origin describes, once as shipped and
// once with DisableFastPaths (the word-at-a-time reference pipeline),
// and the two Results — every cycle, counter, oracle check and
// violation — must be deeply equal. A divergence is minimized with
// Minimize into a witness a regression test can pin.

// runPaths runs pr untraced with the fast paths on or off.
func runPaths(pr *replay.Program, fast bool) (harness.Result, error) {
	spec, err := pr.Spec()
	if err != nil {
		return harness.Result{}, err
	}
	spec.TraceN, spec.RecordOps = 0, false
	spec.Kernel.Machine.DisableFastPaths = !fast
	res, _, err := harness.Exec(spec)
	return res, err
}

// divergence runs pr both ways and describes how they differ ("" when
// they agree). Both sides failing with the same error agree: a program
// that cannot run at a CPU count (a seed's migration to CPU 1 on one
// CPU) still checks that the paths fail alike. ran reports whether the
// program executed.
func divergence(pr *replay.Program) (diff string, ran bool) {
	fast, ferr := runPaths(pr, true)
	slow, serr := runPaths(pr, false)
	switch {
	case ferr != nil || serr != nil:
		if fmt.Sprint(ferr) != fmt.Sprint(serr) {
			return fmt.Sprintf("errors differ: fast %v, reference %v", ferr, serr), false
		}
		return "", false
	case !reflect.DeepEqual(fast, slow):
		var b strings.Builder
		fv, sv := reflect.ValueOf(fast), reflect.ValueOf(slow)
		for i := 0; i < fv.NumField(); i++ {
			if f, s := fv.Field(i).Interface(), sv.Field(i).Interface(); !reflect.DeepEqual(f, s) {
				fmt.Fprintf(&b, "\n%s: fast %+v, reference %+v", fv.Type().Field(i).Name, f, s)
			}
		}
		return "Results differ" + b.String(), true
	}
	return "", true
}

// TestFastPathDifferential runs every seed program and a fixed number of
// generated ones under every policy.All() label at 1 and 2 CPUs, fast
// against reference. Any divergence fails with its minimized witness.
// Exactly the runs with fewer CPUs than a seed recipe migrates between
// fail (alike on both paths); every other run must execute.
func TestFastPathDifferential(t *testing.T) {
	generated, steps := 100, 120
	if testing.Short() {
		generated, steps = 4, 60
	}
	// need is the fewest CPUs a program runs on.
	type program struct {
		pr   *replay.Program
		need int
	}
	recipes := seedRecipes()
	rng := sim.NewRand(1)
	for _, cfg := range policy.All() {
		var progs []program
		for i, pr := range SeedPrograms([]string{cfg.Label}) {
			progs = append(progs, program{pr, max(recipes[i].cpus, 1)})
		}
		for i := 0; i < generated; i++ {
			progs = append(progs, program{Generate(cfg.Label, rng.Uint64(), steps), 1})
		}
		t.Run(cfg.Label, func(t *testing.T) {
			t.Parallel()
			for _, pg := range progs {
				for _, cpus := range []int{1, 2} {
					p := *pg.pr
					p.Origin.CPUs = cpus
					diff, ran := divergence(&p)
					if want := cpus >= pg.need; ran != want {
						t.Errorf("%s at %d CPUs: executed %t, want %t", p.Origin.Workload, cpus, ran, want)
					}
					if diff == "" {
						continue
					}
					keep := func(cand *replay.Program) bool {
						d, _ := divergence(cand)
						return d != ""
					}
					w := Minimize(context.Background(), &p, keep, 400)
					t.Errorf("%s at %d CPUs: %s\nminimized witness (%d of %d ops):\n%s",
						p.Origin.Workload, cpus, diff, len(w.Ops), len(p.Ops), notes(w))
				}
			}
		})
	}
}

// notes renders a program's ops one per line, in the replay grammar.
func notes(pr *replay.Program) string {
	var b strings.Builder
	for _, op := range pr.Ops {
		fmt.Fprintf(&b, "\t%s\n", op.Note())
	}
	return b.String()
}
