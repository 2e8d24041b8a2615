// Command perfbench is the repository's benchmark. It times the
// simulator from outside, only through the public functions of each
// layer (kernel.New, Workload.Setup/Run, harness.Collect,
// Kernel.Snapshot, Snapshot.Fork, workload.RunAliasMicro,
// service.New/Handler and the Stats() accessors), on four workloads:
//
//	kbuild-F         kernel-build × F, 1 CPU, the production Table 4 cell
//	alias-unaligned  the Section 2.5 microbenchmark with unaligned aliases
//	kbuild-F-mp4     kernel-build × F on 4 CPUs with the tables -mp scheduler
//	service-mix      an in-process vcached under a closed loop of 2 clients
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced
// run (--trace 1) reports the per-layer ones: exact simulated counts,
// layer probes, spans recorded around the benchmark's own calls, and
// the CPU profile of the timed phase attributed to packages. Every
// simulated result is checked against the digest recorded in
// perfbench/digests.json.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload kbuild-F --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the JSON result; the lines before
// it record the host and print every metric by name with its unit.
// perfbench/README.md documents the workloads and the metric map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// forkBatch is the number of forks timed together in one restore
// sample.
const forkBatch = 5

type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	root     string
	traceDir string
	record   bool
}

func (o options) spanPath() string { return filepath.Join(o.traceDir, "spans.json") }

// outcome is what a run reports besides its metrics.
type outcome struct {
	m         *metrics
	attempted int
	failed    int
	first     string // digest of the run's first operation
	digestOK  bool
}

// fail counts a failed operation and prints why.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
}

// check is the result-identity gate: every operation's digest must equal
// the run's first and the recorded one. It reports whether op passed.
func (o *outcome) check(name, got, want string) bool {
	if o.first == "" {
		o.first = got
		fmt.Printf("digest %s %s\n", name, got)
	}
	switch {
	case got != o.first:
		o.fail("%s: result digest %s differs from this run's first %s", name, got, o.first)
		return false
	case want == "":
		return true // recording
	case got != want:
		o.fail("%s: result digest %s differs from the recorded %s", name, got, want)
		return false
	}
	o.digestOK = true
	return true
}

// simWorkloads builds the simulated workloads by name; service-mix is
// the fourth workload.
var simWorkloads = map[string]func() (simWorkload, error){
	"kbuild-F":        func() (simWorkload, error) { return kbuildWorkload("kbuild-F", 1) },
	"kbuild-F-mp4":    func() (simWorkload, error) { return kbuildWorkload("kbuild-F-mp4", 4) },
	"alias-unaligned": func() (simWorkload, error) { return aliasWorkload("alias-unaligned") },
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var o options
	var seconds float64
	var traceN int
	flag.StringVar(&o.workload, "workload", "", "workload: kbuild-F, alias-unaligned, kbuild-F-mp4 or service-mix")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&traceN, "trace", 0, "1 for the traced run (per-layer metrics), 0 for end-to-end metrics")
	flag.StringVar(&o.root, "root", ".", "repository root: holds perfbench/digests.json and .bench_build")
	flag.BoolVar(&o.record, "record-digests", false, "record this workload's result digest in perfbench/digests.json instead of checking it")
	flag.Parse()
	newSim, ok := simWorkloads[o.workload]
	if !ok && o.workload != "service-mix" {
		return fmt.Errorf("unknown --workload %q", o.workload)
	}
	if seconds <= 0 || (traceN != 0 && traceN != 1) {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	o.seconds = time.Duration(seconds * float64(time.Second))
	o.trace = traceN == 1
	o.traceDir = filepath.Join(o.root, ".bench_build", "trace", fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	if o.trace {
		if err := os.RemoveAll(o.traceDir); err != nil {
			return err
		}
		if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
			return err
		}
	}

	if err := printHost(o); err != nil {
		return err
	}
	digestPath := filepath.Join(o.root, "perfbench", "digests.json")
	recorded, err := readDigests(digestPath)
	if err != nil {
		return err
	}
	want := recorded[o.workload]
	if !o.record && want == "" {
		return fmt.Errorf("no recorded digest for %s in %s (run with --record-digests)", o.workload, digestPath)
	}
	if o.record {
		want = ""
	}
	var out outcome
	if newSim == nil {
		out, err = runService(o, want)
	} else {
		var w simWorkload
		if w, err = newSim(); err == nil {
			out, err = runSim(w, o, want)
		}
	}
	if err != nil {
		return err
	}
	if o.record {
		if out.first == "" || out.failed != 0 {
			return fmt.Errorf("nothing to record: the run failed")
		}
		recorded[o.workload] = out.first
		b, err := json.MarshalIndent(recorded, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(digestPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
	} else if !out.digestOK && out.failed == 0 {
		out.fail("%s: no operation completed the identity check", o.workload)
	}
	if err := matchSpec(filepath.Join(o.root, "BENCHMARK.json"), o.trace, out.m); err != nil {
		return err
	}
	return printResult(out)
}

// matchSpec checks the run's metrics against the ones BENCHMARK.json
// declares for its mode (end_to_end untraced, per_layer traced), name for
// name and unit for unit.
func matchSpec(path string, traced bool, m *metrics) error {
	type decl struct{ Name, Unit string }
	var spec struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	decls := spec.EndToEnd
	if traced {
		decls = spec.PerLayer
	}
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.Name] = true
		v, ok := m.vals[d.Name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s declared in %s was not measured", d.Name, path)
		case v.Unit != d.Unit:
			return fmt.Errorf("metric %s has unit %s, %s declares %s", d.Name, v.Unit, path, d.Unit)
		}
	}
	for name := range m.vals {
		if !declared[name] {
			return fmt.Errorf("metric %s is not declared in %s", name, path)
		}
	}
	return nil
}

// printHost writes the host record: where and on what the numbers were
// taken.
func printHost(o options) error {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	host := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"cpu_model":  cpuModel(),
		"seed":       o.seed,
		"commit":     commit,
		"workload":   o.workload,
		"trace":      o.trace,
		"seconds":    o.seconds.Seconds(),
	}
	b, err := json.Marshal(map[string]any{"host": host})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func readDigests(path string) (map[string]string, error) {
	out := map[string]string{}
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return out, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, &out); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

// printResult prints every metric by name with its unit and sample
// count, then the JSON result line.
func printResult(out outcome) error {
	names := make([]string, 0, len(out.m.vals))
	for name := range out.m.vals {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := out.m.vals[name]
		fmt.Printf("metric %-36s %14.6g %-6s n=%d\n", name, v.Value, v.Unit, out.m.n[name])
	}
	failedFrac := 0.0
	if out.attempted > 0 {
		failedFrac = float64(out.failed) / float64(out.attempted)
	}
	fmt.Printf("metric %-36s %14.6g %-6s n=%d\n", "failed_frac", failedFrac, "ratio", out.attempted)
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.failed == 0 && out.attempted > 0, out.attempted, out.failed, out.m.vals})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
