// Package workload implements the benchmark drivers of the paper's
// evaluation (Section 2.5 / Section 5) as deterministic synthetic
// programs over the simulated kernel:
//
//   - afs-bench: a file-intensive shell script modeled on the Andrew
//     File System benchmark (create a tree, copy it, scan it, read it,
//     compile it);
//   - latex-paper: a CPU-bound document formatter with modest file I/O
//     and a recurring working set;
//   - kernel-build: compiling ~200 source files — heavy process churn
//     (text faults with data-to-instruction copies), buffer-cache and
//     disk traffic, and constant frame recycling.
//
// Absolute times are meaningless in a simulator; what the drivers
// preserve is the paper's *shape* of memory-system activity, so the
// relative results (which configuration wins, how flush/purge counts
// fall from configuration A to F) can be compared against the paper's
// tables.
//
// Execution lives in internal/harness: a single run goes through
// harness.Exec, and the experiment drivers (cmd/tables, the sweep
// drivers, the test matrices) submit harness Plans built from these
// workloads to Runner.Run instead of running them one at a time.
package workload

import (
	"fmt"
	"strconv"
	"strings"

	"vcache/internal/harness"
)

// Scale sizes a workload. Tests use Small for speed; the table harness
// uses Full.
type Scale = harness.Scale

// Full is the scale the experiment tables are generated at.
func Full() Scale { return Scale{Name: "full", Factor: 1.0} }

// Small is a fast scale for unit and property tests.
func Small() Scale { return Scale{Name: "small", Factor: 0.15} }

// Workload is a runnable benchmark.
type Workload = harness.Workload

// Result carries everything the experiment tables report for one run.
type Result = harness.Result

// Benchmarks returns the three paper benchmarks in Table 1/4 order.
func Benchmarks() []Workload {
	return []Workload{AFSBench(), LatexPaper(), KernelBuild()}
}

// ByName looks a workload up by name. Beyond the three paper
// benchmarks it resolves "stress-<seed>" to the randomized torture
// workload with that seed (at its standard 1500 steps): the name fully
// determines the workload, which is what lets a trace Origin — or a
// service request — name any run the fuzzer or tests can produce.
func ByName(name string) (Workload, error) {
	for _, w := range Benchmarks() {
		if w.Name == name {
			return w, nil
		}
	}
	if seedStr, ok := strings.CutPrefix(name, "stress-"); ok {
		seed, err := strconv.ParseUint(seedStr, 10, 64)
		if err != nil {
			return Workload{}, fmt.Errorf("workload: bad stress seed in %q: %w", name, err)
		}
		return Stress(seed, 1500), nil
	}
	return Workload{}, fmt.Errorf("workload: unknown benchmark %q", name)
}
