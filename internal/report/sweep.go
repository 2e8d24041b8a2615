package report

import (
	"context"
	"fmt"
	"strings"

	"vcache/internal/harness"
	"vcache/internal/kernel"
	"vcache/internal/policy"
	"vcache/internal/workload"
)

// Parameter sweeps. The paper reports only tables; these series extend
// its two quantitative arguments into figures:
//
//   - MemorySweep varies physical memory size, showing how free-list
//     recycling drives the new-mapping purges of Section 5.1 — and how
//     the gap between the old and the new system widens as a system
//     runs longer (smaller memory ≈ more recycling per unit work);
//   - PurgeCostSweep varies the per-line purge cost between the ideal
//     single-cycle purge the paper argues for and the 720's measured
//     cost, generalizing the Section 5.1 what-if.
//
// Each sweep has a driver (RunMemorySweep, RunPurgeCostSweep) that
// builds the whole series as one harness.Plan, submits it to the given
// runner — every point is an independent simulation, so the series fans
// out across workers — and renders the rows from the plan-ordered
// results.

// MemorySweepFrames are the physical memory sizes (in 4 KiB frames) the
// memory sweep samples.
var MemorySweepFrames = []int{384, 512, 768, 1024, 1536, 2048, 4096}

// RunMemorySweep runs the memory-size series (kernel-build under A and F
// at each memory size) through the runner and renders it.
// Cancelling ctx aborts the remaining series points (see
// harness.Runner.Run).
func RunMemorySweep(ctx context.Context, r *harness.Runner, scale workload.Scale) (string, error) {
	var plan harness.Plan
	for _, frames := range MemorySweepFrames {
		for _, cfg := range []policy.Config{policy.Old(), policy.New()} {
			kc := kernel.DefaultConfig(cfg)
			kc.Machine.Frames = frames
			plan = append(plan, harness.Spec{Workload: workload.KernelBuild(), Config: cfg, Scale: scale, Kernel: &kc})
		}
	}
	results, err := harness.Results(r.Run(ctx, plan))
	if err != nil {
		return "", err
	}
	var rows []MemorySweepRow
	for i, frames := range MemorySweepFrames {
		rows = append(rows, MemorySweepRow{
			Frames: frames,
			Old:    results[2*i],
			New:    results[2*i+1],
		})
	}
	return MemorySweep(rows), nil
}

// PurgeCostSweepCosts are the per-line purge-hit costs (cycles) the
// purge-cost sweep samples, from the ideal single-cycle purge to 4× the
// 720's measured cost.
var PurgeCostSweepCosts = []uint64{0, 1, 2, 4, 7, 14, 28}

// RunPurgeCostSweep runs the purge-cost series (kernel-build under F at
// each per-line purge cost) through the runner and renders it.
// Cancelling ctx aborts the remaining series points.
func RunPurgeCostSweep(ctx context.Context, r *harness.Runner, scale workload.Scale) (string, error) {
	var plan harness.Plan
	for _, cost := range PurgeCostSweepCosts {
		cfg := policy.New()
		kc := kernel.DefaultConfig(cfg)
		kc.Machine.Timing.LinePurgeHit = cost
		if cost == 0 {
			kc.Machine.Timing.LinePurgeMiss = 0
			kc.Machine.Timing.ICachePagePurge = 1
		}
		plan = append(plan, harness.Spec{Workload: workload.KernelBuild(), Config: cfg, Scale: scale, Kernel: &kc})
	}
	results, err := harness.Results(r.Run(ctx, plan))
	if err != nil {
		return "", err
	}
	var rows []PurgeCostRow
	for i, cost := range PurgeCostSweepCosts {
		rows = append(rows, PurgeCostRow{LinePurgeHit: cost, Result: results[i]})
	}
	return PurgeCostSweep(rows), nil
}

// MemorySweepRow is one point of the memory-size series.
type MemorySweepRow struct {
	Frames int
	Old    workload.Result // configuration A
	New    workload.Result // configuration F
}

// MemorySweep renders the series.
func MemorySweep(rows []MemorySweepRow) string {
	var b strings.Builder
	b.WriteString("Sweep: physical memory size vs. consistency work (kernel-build)\n")
	b.WriteString("Smaller memories recycle frames harder, like a longer-running system.\n\n")
	row(&b, fmt.Sprintf("%8s", "frames"),
		fmt.Sprintf("%12s", "A elapsed"),
		fmt.Sprintf("%12s", "F elapsed"),
		fmt.Sprintf("%7s", "gain"),
		fmt.Sprintf("%10s", "A purges"),
		fmt.Sprintf("%10s", "F purges"),
		fmt.Sprintf("%12s", "F new-map"),
		fmt.Sprintf("%10s", "pageouts"))
	for _, r := range rows {
		gain := 0.0
		if r.Old.Seconds > 0 {
			gain = (r.Old.Seconds - r.New.Seconds) / r.Old.Seconds * 100
		}
		row(&b, fmt.Sprintf("%8d", r.Frames),
			fmt.Sprintf("%11.2fs", r.Old.Seconds),
			fmt.Sprintf("%11.2fs", r.New.Seconds),
			fmt.Sprintf("%6.1f%%", gain),
			fmt.Sprintf("%10d", r.Old.PM.DPurgePages+r.Old.PM.IPurgePages),
			fmt.Sprintf("%10d", r.New.PM.DPurgePages+r.New.PM.IPurgePages),
			fmt.Sprintf("%12d", r.New.PM.NewMappingPurges),
			fmt.Sprintf("%10d", r.New.PageOuts))
	}
	return b.String()
}

// PurgeCostRow is one point of the purge-cost series.
type PurgeCostRow struct {
	LinePurgeHit uint64 // cycles to purge a present line
	Result       workload.Result
}

// PurgeCostSweep renders the series.
func PurgeCostSweep(rows []PurgeCostRow) string {
	var b strings.Builder
	b.WriteString("Sweep: per-line purge cost vs. elapsed time (kernel-build, configuration F)\n")
	b.WriteString("The 720 purges a present line in 7 cycles; the paper argues for 1.\n\n")
	row(&b, fmt.Sprintf("%16s", "purge-hit cycles"),
		fmt.Sprintf("%12s", "elapsed"),
		fmt.Sprintf("%14s", "purge seconds"),
		fmt.Sprintf("%10s", "of total"))
	for _, r := range rows {
		purgeSecs := float64(r.Result.PM.DPurgeCycles+r.Result.PM.IPurgeCycles) / 50_000_000
		pctv := 0.0
		if r.Result.Seconds > 0 {
			pctv = purgeSecs / r.Result.Seconds * 100
		}
		row(&b, fmt.Sprintf("%16d", r.LinePurgeHit),
			fmt.Sprintf("%11.3fs", r.Result.Seconds),
			fmt.Sprintf("%13.4fs", purgeSecs),
			fmt.Sprintf("%9.2f%%", pctv))
	}
	return b.String()
}
