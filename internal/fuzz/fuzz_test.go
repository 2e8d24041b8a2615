package fuzz

import (
	"context"
	"reflect"
	"testing"

	"vcache/internal/core"
	"vcache/internal/replay"
	"vcache/internal/sim"
)

// TestSeedProgramsExecute runs every handcrafted recipe under every
// paper configuration: a seed that errors is a bug in the recipe, and
// an oracle violation would mean the consistency model itself is
// broken.
func TestSeedProgramsExecute(t *testing.T) {
	for _, pr := range SeedPrograms([]string{"A", "B", "C", "D", "E", "F"}) {
		res, cov, err := runProgram(context.Background(), pr)
		if err != nil {
			t.Fatalf("%s: %v", pr.Origin.Workload, err)
		}
		if res.OracleViolations > 0 {
			t.Errorf("%s: %d oracle violations", pr.Origin.Workload, res.OracleViolations)
		}
		if cov.Covered() == 0 {
			t.Errorf("%s: exercised no coverage cells", pr.Origin.Workload)
		}
	}
}

// TestMPSeedCrossCPUCoverage pins the multiprocessor seed's reason for
// existing. Table 2 cells do not encode which CPU's cache held the
// line, so coverage alone cannot distinguish cross-CPU interleavings
// from the same-CPU aliasing the uniprocessor seeds already produce.
// The cross-CPU observable is cycle accounting: each migration charges
// exactly one FaultTrap, so if the seed's cycle count differs from its
// sched-stripped twin by anything OTHER than migrations×FaultTrap, the
// migrations changed which per-CPU caches serviced the accesses —
// remote hits, broadcast write-backs of remote dirty lines, cold
// misses after re-homing. The minimized witness must preserve the
// seed's other-role cell set.
func TestMPSeedCrossCPUCoverage(t *testing.T) {
	trap := sim.HP720Timing().FaultTrap
	crossCPU := false
	for _, cfg := range []string{"A", "B", "C", "D", "E", "F"} {
		var pr *replay.Program
		for _, p := range SeedPrograms([]string{cfg}) {
			if p.Origin.Workload == "seed-mp-migrate-"+cfg {
				pr = p
			}
		}
		if pr == nil {
			t.Fatal("mp-migrate seed missing")
		}
		if pr.Origin.CPUs != 2 {
			t.Fatalf("mp-migrate origin CPUs = %d, want 2", pr.Origin.CPUs)
		}
		res, cov, err := runProgram(context.Background(), pr)
		if err != nil {
			t.Fatal(err)
		}
		otherCells := func(c *core.Coverage) []core.Cell {
			var out []core.Cell
			for _, cell := range core.Cells() {
				if cell.Role == core.RoleOther && c.Count(cell) > 0 {
					out = append(out, cell)
				}
			}
			return out
		}
		want := otherCells(cov)
		if len(want) == 0 {
			t.Fatalf("%s: mp-migrate seed covered no other-role cells", cfg)
		}

		// The sched-stripped twin: identical ops on the same 2-CPU
		// machine, processes pinned to their spawn CPUs throughout.
		stripped := *pr
		stripped.Ops = nil
		migrations := 0
		for _, op := range pr.Ops {
			if op.Verb == "sched" {
				migrations++
				continue
			}
			stripped.Ops = append(stripped.Ops, op)
		}
		res2, _, err := runProgram(context.Background(), &stripped)
		if err != nil {
			t.Fatal(err)
		}
		residual := int64(res.Cycles) - int64(res2.Cycles) - int64(uint64(migrations)*trap)
		if residual != 0 {
			crossCPU = true
		}
		t.Logf("%s: %d other-role cells, %d migrations, cache-behavior cycle delta %+d",
			cfg, len(want), migrations, residual)

		// Minimize against the other-role cell set and keep the witness
		// honest: still executes, still covers every cell.
		keep := func(cand *replay.Program) bool {
			_, c2, err := runProgram(context.Background(), cand)
			if err != nil {
				return false
			}
			for _, cell := range want {
				if c2.Count(cell) == 0 {
					return false
				}
			}
			return true
		}
		min := Minimize(context.Background(), pr, keep, 2000)
		if !keep(min) {
			t.Fatalf("%s: minimized witness lost the other-role cell set", cfg)
		}
		if len(min.Ops) > len(pr.Ops) {
			t.Fatalf("%s: minimizer grew the program", cfg)
		}
	}
	if !crossCPU {
		t.Error("no configuration showed cache-behavior effects from migration — interleavings are not cross-CPU")
	}
}

// TestGenerateDeterministic pins the generator contract: the same
// (config, seed, steps) triple always yields the identical program.
func TestGenerateDeterministic(t *testing.T) {
	a := Generate("F", 7, 80)
	b := Generate("F", 7, 80)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different programs")
	}
	c := Generate("F", 8, 80)
	if reflect.DeepEqual(a.Ops, c.Ops) {
		t.Fatal("different seeds produced identical programs")
	}
}

// TestGeneratedProgramsExecute samples the generator across seeds and
// configs; generated programs must execute without errors (the
// executor's strictness is reserved for minimizer candidates).
func TestGeneratedProgramsExecute(t *testing.T) {
	n := 12
	if testing.Short() {
		n = 4
	}
	for seed := 0; seed < n; seed++ {
		cfg := []string{"A", "F"}[seed%2]
		pr := Generate(cfg, uint64(seed), 100)
		if _, _, err := runProgram(context.Background(), pr); err != nil {
			t.Errorf("config %s seed %d: %v", cfg, seed, err)
		}
	}
}

// TestMinimize checks the delta-debugging invariants on a synthetic
// property: keeping a designated subset of ops. The result must be a
// property-preserving subsequence, 1-minimal under the property.
func TestMinimize(t *testing.T) {
	pr := Generate("F", 42, 60)
	// Property: the program still executes and still covers whatever
	// CPU-write cells the original covered.
	_, cov, err := runProgram(context.Background(), pr)
	if err != nil {
		t.Fatal(err)
	}
	keep := func(cand *replay.Program) bool {
		_, c2, err := runProgram(context.Background(), cand)
		if err != nil {
			return false
		}
		for _, c := range core.Cells() {
			if c.Op == core.CPUWrite && cov.Count(c) > 0 && c2.Count(c) == 0 {
				return false
			}
		}
		return true
	}
	min := Minimize(context.Background(), pr, keep, 2000)
	if len(min.Ops) == 0 || len(min.Ops) > len(pr.Ops) {
		t.Fatalf("minimizer returned %d ops from %d", len(min.Ops), len(pr.Ops))
	}
	if !keep(min) {
		t.Fatal("minimized program lost the property")
	}
	// Subsequence check.
	j := 0
	for _, op := range pr.Ops {
		if j < len(min.Ops) && reflect.DeepEqual(op, min.Ops[j]) {
			j++
		}
	}
	if j != len(min.Ops) {
		t.Fatal("minimized program is not a subsequence of the original")
	}
	t.Logf("minimized %d -> %d ops", len(pr.Ops), len(min.Ops))
}

// TestCampaign is the package's self-test: a default-budget campaign
// must reach full Table 2 coverage, and every finding's minimized
// witness must record to a replayable trace that replays cleanly.
func TestCampaign(t *testing.T) {
	opts := Options{Seed: 1, Log: t.Logf}
	if testing.Short() {
		opts.Budget = 40
	}
	rep, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("campaign: tried %d, skipped %d, findings %d, %s",
		rep.Tried, rep.Skipped, len(rep.Findings), rep.Coverage)
	if !testing.Short() && !rep.Coverage.Full() {
		t.Errorf("campaign did not reach full coverage: %s", rep.Coverage)
	}
	for _, f := range rep.Findings {
		if f.Violating {
			t.Errorf("finding %s: oracle violation (consistency bug)", f.Program.Origin.Workload)
		}
	}
	// Every minimized witness must export and replay.
	max := 3
	for i, f := range rep.Findings {
		if i >= max {
			break
		}
		ex, err := Witness(context.Background(), f.Program)
		if err != nil {
			t.Fatalf("witness %s: %v", f.Program.Origin.Workload, err)
		}
		if _, _, err := replay.Replay(context.Background(), ex); err != nil {
			t.Errorf("replay of witness %s: %v", f.Program.Origin.Workload, err)
		}
	}
}

// TestCampaignRejectsUnknownLabel: a configuration label the policy
// does not know is rejected before any program executes.
func TestCampaignRejectsUnknownLabel(t *testing.T) {
	if _, err := Run(context.Background(), Options{Seed: 1, Configs: []string{"F", "nope"}}); err == nil {
		t.Fatal("Run accepted an unknown configuration label")
	}
}

// TestCampaignSingleBackend: a campaign under one peer backend runs
// end to end.
func TestCampaignSingleBackend(t *testing.T) {
	rep, err := Run(context.Background(), Options{Seed: 1, Budget: 5, Configs: []string{"RLT"}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Coverage.Covered() == 0 {
		t.Error("RLT campaign covered no cells")
	}
	for _, f := range rep.Findings {
		if f.Violating {
			t.Errorf("finding %s: oracle violation under RLT", f.Program.Origin.Workload)
		}
	}
}

// TestCampaignMixedBackends: a cell is derived from the page state
// alone, so it names the same event under every backend, and one
// campaign may accumulate the CMU scheme and a peer backend in one map.
func TestCampaignMixedBackends(t *testing.T) {
	rep, err := Run(context.Background(), Options{Seed: 1, Budget: 6, Configs: []string{"F", "RLT"}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tried == 0 || rep.Coverage.Covered() == 0 {
		t.Fatalf("mixed campaign tried %d programs and covered %d cells", rep.Tried, rep.Coverage.Covered())
	}
	for _, f := range rep.Findings {
		if f.Violating {
			t.Errorf("finding %s (%s): oracle violation", f.Program.Origin.Workload, f.Program.Origin.Config)
		}
	}
}
