// Package report renders the paper's tables from simulation results.
// Each function reproduces one artifact of the evaluation:
//
//	Table1 — old vs new kernel on the three benchmarks (Section 2.5)
//	Table2 — the cache-line state transitions (Section 3.2)
//	Table3 — state ↔ data-structure encoding (Section 4.1)
//	Table4 — configurations A–F on the three benchmarks (Section 5)
//	Table5 — functional comparison of five systems (Section 6)
//	Micro  — the aligned/unaligned alias microbenchmark (Section 2.5)
//	Analysis — the Section 5.1 overhead decomposition and the
//	           single-cycle-purge what-if
package report

import (
	"fmt"
	"strings"
	"unicode/utf8"

	"vcache/internal/core"
	"vcache/internal/policy"
	"vcache/internal/workload"
)

// row writes one formatted table row.
func row(b *strings.Builder, cells ...string) {
	b.WriteString(strings.Join(cells, "  "))
	b.WriteByte('\n')
}

// Table1 renders the Section 2.5 comparison: elapsed time and cache
// consistency operations for the three benchmarks under the old (A) and
// new (F) systems. pairs holds {old, new} results per benchmark.
func Table1(pairs [][2]workload.Result) string {
	var b strings.Builder
	b.WriteString("Table 1: Performance of several common benchmarks using two approaches\n")
	b.WriteString("to consistency management (old = configuration A, new = configuration F)\n\n")
	row(&b, fmt.Sprintf("%-14s", "Program"),
		fmt.Sprintf("%22s", "Elapsed time (s)"),
		fmt.Sprintf("%20s", "Page flushes"),
		fmt.Sprintf("%20s", "Page purges"))
	row(&b, fmt.Sprintf("%-14s", ""),
		fmt.Sprintf("%8s %8s %4s", "old", "new", "gain"),
		fmt.Sprintf("%9s %10s", "old", "new"),
		fmt.Sprintf("%9s %10s", "old", "new"))
	for _, pr := range pairs {
		old, new_ := pr[0], pr[1]
		gain := 0.0
		if old.Seconds > 0 {
			gain = (old.Seconds - new_.Seconds) / old.Seconds * 100
		}
		row(&b, fmt.Sprintf("%-14s", old.Workload),
			fmt.Sprintf("%8.2f %8.2f %3.0f%%", old.Seconds, new_.Seconds, gain),
			fmt.Sprintf("%9d %10d", old.PM.DFlushPages, new_.PM.DFlushPages),
			fmt.Sprintf("%9d %10d", old.PM.DPurgePages+old.PM.IPurgePages,
				new_.PM.DPurgePages+new_.PM.IPurgePages))
	}
	return b.String()
}

// Table2 renders the state-transition table from the executable model —
// the transitions that must occur to ensure the memory system never
// returns inconsistent data to the CPU or a device.
func Table2() string {
	var b strings.Builder
	b.WriteString("Table 2: Cache line state transitions\n\n")
	row(&b, fmt.Sprintf("%-12s", "Operation"),
		fmt.Sprintf("%-16s", "Target line"),
		"All other similarly mapped but unaligned lines")
	for _, op := range core.MemoryOperations {
		for i, s := range core.States {
			opName := ""
			if i == 0 {
				opName = op.String()
			}
			tt := core.TargetTransition(op, s)
			ot := core.OtherTransition(op, s)
			row(&b, fmt.Sprintf("%-12s", opName),
				fmt.Sprintf("%-16s", fmt.Sprintf("%s → %s", s, tt)),
				fmt.Sprintf("%s → %s", s, ot))
		}
	}
	for _, op := range []core.Operation{core.OpPurge, core.OpFlush} {
		for i, s := range core.States {
			opName := ""
			if i == 0 {
				opName = op.String()
			}
			tt := core.TargetTransition(op, s)
			ot := core.OtherTransition(op, s)
			row(&b, fmt.Sprintf("%-12s", opName),
				fmt.Sprintf("%-16s", fmt.Sprintf("%s → %s", s, tt)),
				fmt.Sprintf("%s → %s", s, ot))
		}
	}
	return b.String()
}

// Table3 renders the correspondence between cache page states and the
// data structures maintained by the algorithm, derived from the
// implementation's decoder.
func Table3() string {
	var b strings.Builder
	b.WriteString("Table 3: Cache page state vs. algorithm data structures\n\n")
	row(&b, fmt.Sprintf("%-10s", "State"),
		fmt.Sprintf("%-14s", "P[p].mapped[c]"),
		fmt.Sprintf("%-13s", "P[p].stale[c]"),
		"P[p].cache_dirty")
	cases := []struct {
		mapped, stale, dirty bool
	}{
		{false, false, false}, {false, false, true},
		{true, false, false}, {true, false, true},
		{false, true, false}, {false, true, true},
	}
	seen := map[string]bool{}
	for _, c := range cases {
		var ps core.PageState
		if c.mapped {
			ps.Mapped.Set(0)
		}
		if c.stale {
			ps.Stale.Set(0)
		}
		ps.CacheDirty = c.dirty
		if c.dirty && !c.mapped {
			// cache_dirty requires a mapped page; skip encodings the
			// invariants exclude, matching the paper's "-" cells.
			continue
		}
		st := ps.StateOf(0)
		key := fmt.Sprintf("%v%v", st, c)
		if seen[key] {
			continue
		}
		seen[key] = true
		dirtyCell := fmt.Sprintf("%t", c.dirty)
		if !c.mapped {
			dirtyCell = "-"
		}
		row(&b, fmt.Sprintf("%-10s", st.Long()),
			fmt.Sprintf("%-14t", c.mapped),
			fmt.Sprintf("%-13t", c.stale),
			dirtyCell)
	}
	return b.String()
}

// Table4 renders the configuration sweep: one block per benchmark, one
// row per configuration (the cumulative A–F series plus, by default,
// the peer consistency backend RLT). results[w][c] is benchmark w under
// config c. Rows run under a non-CMU backend carry a sub-line with the
// backend's own counters (reverse-lookup assists, inserts and
// evictions).
func Table4(benchNames []string, results [][]workload.Result) string {
	var b strings.Builder
	b.WriteString("Table 4: Performance of three benchmark programs under cumulative\n")
	b.WriteString("consistency-management configurations and peer consistency backends\n")
	b.WriteString("(simulated 50 MHz HP 9000/720)\n\n")
	for wi, name := range benchNames {
		b.WriteString(name + "\n")
		configRows(&b, results[wi])
		b.WriteByte('\n')
	}
	return b.String()
}

// configRows renders the header and the per-configuration rows shared
// by Table 4 and Table MP, each row followed by its backend sub-line if
// it has one. The configuration column is as wide as its longest
// "label name" cell, so every name prints whole.
func configRows(b *strings.Builder, results []workload.Result) {
	cells := make([]string, len(results))
	w := len("configuration")
	for i, r := range results {
		cells[i] = fmt.Sprintf("%-3s %s", r.Config.Label, r.Config.Name)
		w = max(w, utf8.RuneCountInString(cells[i]))
	}
	row(b, fmt.Sprintf("  %-*s", w, "configuration"),
		fmt.Sprintf("%8s", "elapsed"),
		fmt.Sprintf("%7s", "mapping"), fmt.Sprintf("%7s", "consis"), fmt.Sprintf("%7s", "modify"),
		fmt.Sprintf("%14s", "dcache flush"), fmt.Sprintf("%14s", "dcache purge"),
		fmt.Sprintf("%14s", "icache purge"),
		fmt.Sprintf("%7s", "DMA-rd"), fmt.Sprintf("%7s", "DMA-wr"), fmt.Sprintf("%6s", "d→i"))
	row(b, fmt.Sprintf("  %-*s", w, ""),
		fmt.Sprintf("%8s", "(s)"),
		fmt.Sprintf("%7s", "faults"), fmt.Sprintf("%7s", "faults"), fmt.Sprintf("%7s", "faults"),
		fmt.Sprintf("%7s %6s", "count", "cyc/op"), fmt.Sprintf("%7s %6s", "count", "cyc/op"),
		fmt.Sprintf("%7s %6s", "count", "cyc/op"),
		fmt.Sprintf("%7s", "flush"), fmt.Sprintf("%7s", "purge"), fmt.Sprintf("%6s", "copy"))
	for i, r := range results {
		s := r.PM
		row(b, fmt.Sprintf("  %-*s", w, cells[i]),
			fmt.Sprintf("%8.2f", r.Seconds),
			fmt.Sprintf("%7d", s.MappingFaults),
			fmt.Sprintf("%7d", s.ConsistencyFaults),
			fmt.Sprintf("%7d", s.ModifyFaults),
			fmt.Sprintf("%7d %6d", s.DFlushPages, avg(s.DFlushCycles, s.DFlushPages)),
			fmt.Sprintf("%7d %6d", s.DPurgePages, avg(s.DPurgeCycles, s.DPurgePages)),
			fmt.Sprintf("%7d %6d", s.IPurgePages, avg(s.IPurgeCycles, s.IPurgePages)),
			fmt.Sprintf("%7d", s.DMAReadFlushes),
			fmt.Sprintf("%7d", s.DMAWritePurges),
			fmt.Sprintf("%6d", s.DToICopies))
		if line := backendLine(r); line != "" {
			b.WriteString(line)
		}
	}
}

// backendLine renders the per-backend counter sub-line for a result run
// under a non-CMU consistency backend, or "" for CMU rows.
func backendLine(r workload.Result) string {
	kind := r.Config.Features.Backend
	counters := r.PM.BackendCounters(kind)
	if counters == nil {
		return ""
	}
	cells := make([]string, len(counters))
	for i, c := range counters {
		cells[i] = fmt.Sprintf("%s %d", c.Name, c.Value)
	}
	return fmt.Sprintf("      backend %s: %s\n", kind, strings.Join(cells, "  "))
}

// TableMP renders the multiprocessor sweep: one benchmark under every
// configuration A–F at each simulated CPU count, with deterministic
// quantum preemption migrating processes between CPUs (uniprocessor
// rows run schedulerless and match Table 4 exactly). results[c][k] is
// CPU count c under configuration k.
func TableMP(bench string, cpuCounts []int, results [][]workload.Result) string {
	var b strings.Builder
	b.WriteString("Table MP: " + bench + " across simulated CPU counts under\n")
	b.WriteString("cumulative consistency-management configurations (deterministic\n")
	b.WriteString("quantum preemption; 1-CPU rows are the Table 4 baseline)\n\n")
	for ci, cpus := range cpuCounts {
		fmt.Fprintf(&b, "%s, %d CPU(s)\n", bench, cpus)
		configRows(&b, results[ci])
		b.WriteByte('\n')
	}
	return b.String()
}

func avg(cycles, n uint64) uint64 {
	if n == 0 {
		return 0
	}
	return cycles / n
}

// Table5 renders the functional comparison of the five systems — plus
// the peer consistency backend RLT-VIVT — with a measured column
// (flush+purge work on the randomized torture workload).
func Table5(measured map[string]workload.Result) string {
	var b strings.Builder
	b.WriteString("Table 5: Functional comparison of virtually-indexed-cache management\n")
	b.WriteString("in five systems and one peer backend (measured column: randomized\n")
	b.WriteString("torture workload)\n\n")
	row(&b, fmt.Sprintf("%-8s", "System"),
		fmt.Sprintf("%-9s", "unaligned"),
		fmt.Sprintf("%-6s", "lazy"),
		fmt.Sprintf("%-7s", "aligns"),
		fmt.Sprintf("%-8s", "aligned"),
		fmt.Sprintf("%-6s", "need"),
		fmt.Sprintf("%-9s", "will"),
		fmt.Sprintf("%9s", "flushes+"),
		fmt.Sprintf("%9s", "elapsed"))
	row(&b, fmt.Sprintf("%-8s", ""),
		fmt.Sprintf("%-9s", "aliases"),
		fmt.Sprintf("%-6s", "unmap"),
		fmt.Sprintf("%-7s", "pages"),
		fmt.Sprintf("%-8s", "prepare"),
		fmt.Sprintf("%-6s", "data"),
		fmt.Sprintf("%-9s", "overwrite"),
		fmt.Sprintf("%9s", "purges"),
		fmt.Sprintf("%9s", "(s)"))
	yn := func(v bool) string {
		if v {
			return "yes"
		}
		return "no"
	}
	for _, cfg := range append(policy.Table5Systems(), policy.PeerBackends()...) {
		f := cfg.Features
		cells := []string{
			fmt.Sprintf("%-8s", cfg.Label),
			fmt.Sprintf("%-9s", f.Aliases()),
			fmt.Sprintf("%-6s", yn(f.LazyUnmap)),
			fmt.Sprintf("%-7s", yn(f.AlignPages)),
			fmt.Sprintf("%-8s", yn(f.AlignedPrepare)),
			fmt.Sprintf("%-6s", yn(f.NeedData)),
			fmt.Sprintf("%-9s", yn(f.WillOverwrite)),
		}
		if r, ok := measured[cfg.Label]; ok {
			ops := r.PM.DFlushPages + r.PM.DPurgePages + r.PM.IPurgePages
			cells = append(cells,
				fmt.Sprintf("%9d", ops),
				fmt.Sprintf("%9.3f", r.Seconds))
		}
		row(&b, cells...)
	}
	return b.String()
}

// Micro renders the Section 2.5 alias microbenchmark: the aligned and
// unaligned runs of the paper's system, then one row per further
// unaligned run, labelled with its configuration. Aligned aliases cost
// the same under every configuration, so one aligned row stands for all.
func Micro(aligned workload.AliasMicroResult, unaligned ...workload.AliasMicroResult) string {
	var b strings.Builder
	b.WriteString("Section 2.5 microbenchmark: repeated writes to one physical address\n")
	b.WriteString("through two virtual addresses\n\n")
	row(&b, fmt.Sprintf("%-10s", "mapping"),
		fmt.Sprintf("%10s", "writes"),
		fmt.Sprintf("%12s", "elapsed (s)"),
		fmt.Sprintf("%10s", "faults"),
		fmt.Sprintf("%9s", "flushes"),
		fmt.Sprintf("%9s", "purges"))
	for i, r := range append([]workload.AliasMicroResult{aligned}, unaligned...) {
		name := "aligned"
		if i == 1 {
			name = "unaligned"
		} else if i > 1 {
			name = "  " + r.Config.Label
		}
		row(&b, fmt.Sprintf("%-10s", name),
			fmt.Sprintf("%10d", r.Writes),
			fmt.Sprintf("%12.4f", r.Seconds),
			fmt.Sprintf("%10d", r.Faults),
			fmt.Sprintf("%9d", r.DFlushes),
			fmt.Sprintf("%9d", r.DPurges))
	}
	if aligned.Seconds > 0 {
		fmt.Fprintf(&b, "\nunaligned/aligned slowdown: %.0fx (paper: a fraction of a second vs. over 2 minutes)\n",
			unaligned[0].Seconds/aligned.Seconds)
	}
	return b.String()
}

// Analysis renders the Section 5.1 decomposition: the cost of virtually
// indexed cache management under configuration F, the unavoidable cost
// that exists regardless of cache architecture, and the saving a
// single-cycle page purge would bring.
func Analysis(normal, fastPurge []workload.Result, timingHz uint64) string {
	var b strings.Builder
	b.WriteString("Section 5.1 analysis (configuration F)\n\n")
	var total, totalFast uint64
	var purgeCauseNewMap, purgeCauseDMA, purgeTotal, flushDMA, flushD2I, flushTotal uint64
	var consF uint64
	var dPurgeCycles, iPurgeCycles uint64
	for i, r := range normal {
		total += r.Cycles
		totalFast += fastPurge[i].Cycles
		purgeCauseNewMap += r.PM.NewMappingPurges
		purgeCauseDMA += r.PM.DMAWritePurges
		purgeTotal += r.PM.DPurgePages + r.PM.IPurgePages
		flushDMA += r.PM.DMAReadFlushes
		flushD2I += r.PM.DToICopies
		flushTotal += r.PM.DFlushPages
		consF += r.PM.ConsistencyFaults
		dPurgeCycles += r.PM.DPurgeCycles
		iPurgeCycles += r.PM.IPurgeCycles
	}
	secs := func(c uint64) float64 { return float64(c) / float64(timingHz) }
	fmt.Fprintf(&b, "total elapsed (3 benchmarks):        %8.2f s\n", secs(total))
	fmt.Fprintf(&b, "page purges:                         %8d\n", purgeTotal)
	fmt.Fprintf(&b, "  due to new mappings:               %8d (%4.1f%%)\n",
		purgeCauseNewMap, pct(purgeCauseNewMap, purgeTotal))
	fmt.Fprintf(&b, "  due to DMA-writes:                 %8d (%4.1f%%)\n",
		purgeCauseDMA, pct(purgeCauseDMA, purgeTotal))
	fmt.Fprintf(&b, "page flushes:                        %8d\n", flushTotal)
	fmt.Fprintf(&b, "  due to DMA-reads:                  %8d\n", flushDMA)
	fmt.Fprintf(&b, "  due to data→instruction copies:    %8d\n", flushD2I)
	fmt.Fprintf(&b, "consistency faults:                  %8d\n", consF)
	fmt.Fprintf(&b, "purge time (D+I):                    %8.3f s (%.2f%% of total)\n",
		secs(dPurgeCycles+iPurgeCycles), pct(dPurgeCycles+iPurgeCycles, total))
	fmt.Fprintf(&b, "\nwith a single-cycle page purge:      %8.2f s (saving %.2f s, %.2f%%)\n",
		secs(totalFast), secs(total)-secs(totalFast), pct(total-totalFast, total))
	return b.String()
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b) * 100
}
