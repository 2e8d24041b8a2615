package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"
)

// layerPackages are the internal packages the CPU profile is attributed
// to, one cpu_share metric each.
var layerPackages = []string{"cache", "tlb", "machine", "mem", "arch", "sim", "core", "pmap",
	"vm", "fs", "dma", "kernel", "unixserver", "harness", "service", "workload"}

// Runtime frames that stand for map hashing and lookup, and for
// allocation and garbage collection.
var (
	mapPrefixes = []string{"runtime.map", "internal/runtime/maps.", "runtime.memhash", "runtime.strhash",
		"runtime.aeshash", "runtime.interhash", "runtime.nilinterhash", "runtime.f32hash", "runtime.f64hash",
		"runtime.c64hash", "runtime.c128hash", "runtime.typehash"}
	gcPrefixes = []string{"runtime.mallocgc", "runtime.newobject", "runtime.makeslice", "runtime.growslice",
		"runtime.gc", "runtime.(*gc", "runtime.scan", "runtime.greyobject", "runtime.markroot",
		"runtime.markBits", "runtime.(*markBits)", "runtime.(*mspan)", "runtime.(*mheap)",
		"runtime.(*mcache)", "runtime.(*mcentral)", "runtime.sweepone", "runtime.bgsweep",
		"runtime.bgscavenge", "runtime.(*sweepLocked)", "runtime.(*scavengerState)",
		"runtime.(*pageAlloc)", "runtime.findObject", "runtime.heapBits", "runtime.typePointers",
		"runtime.(*gcBits)", "runtime.wbBuf", "runtime.bulkBarrier", "runtime.nextFreeFast",
		"runtime.deductAssistCredit", "runtime.spanOf", "runtime.memclrNoHeapPointersChunked"}
)

// profiler collects CPU profiles of timed phases, one file per phase;
// a nil profiler does nothing.
type profiler struct {
	dir   string
	files []string
	cur   *os.File
}

func newProfiler(dir string) (*profiler, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &profiler{dir: dir}, nil
}

func (p *profiler) start() error {
	if p == nil {
		return nil
	}
	f, err := os.Create(filepath.Join(p.dir, fmt.Sprintf("cpu-%04d.pprof", len(p.files))))
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("start CPU profile: %w", err)
	}
	p.cur = f
	p.files = append(p.files, f.Name())
	return nil
}

func (p *profiler) stop() error {
	if p == nil || p.cur == nil {
		return nil
	}
	pprof.StopCPUProfile()
	err := p.cur.Close()
	p.cur = nil
	return err
}

// attribute merges the profiles with `go tool pprof -traces` and sets
// one cpu_share metric per layer package plus runtime.map, runtime.gc
// and other; the shares sum to 1. Each sample goes to the first frame,
// from the leaf up, that is a map or GC routine of the runtime or lies
// in an internal package; a leaf in another runtime helper (memmove,
// memclr) is thereby charged to the package that called it.
func (p *profiler) attribute(m *metrics) error {
	if len(p.files) == 0 {
		return fmt.Errorf("no CPU profile was taken")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		return fmt.Errorf("CPU share needs the go tool: %w", err)
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(goTool, append([]string{"tool", "pprof", "-traces"}, p.files...)...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	shares, total, err := parseTraces(&stdout)
	if err != nil {
		return err
	}
	if total == 0 {
		return fmt.Errorf("CPU profile holds no samples")
	}
	samples := int(total / (10 * time.Millisecond))
	for _, name := range append(append([]string{}, layerPackages...), "runtime.map", "runtime.gc", "other") {
		m.set("cpu_share."+name, float64(shares[name])/float64(total), "share", samples)
	}
	return nil
}

// parseTraces reads `pprof -traces` output: blocks separated by dashed
// lines, each starting with the sample value followed by its stack,
// leaf first.
func parseTraces(r *bytes.Buffer) (map[string]time.Duration, time.Duration, error) {
	shares := map[string]time.Duration{}
	var total time.Duration
	var value time.Duration
	var stack []string
	flush := func() {
		if value > 0 {
			shares[classify(stack)] += value
			total += value
		}
		value, stack = 0, nil
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if value == 0 && len(stack) == 0 && strings.HasPrefix(line, " ") {
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				continue // header lines (File:, Type:, ...) and labels
			}
			value = d
			if len(fields) > 1 {
				stack = append(stack, fields[1])
			}
			continue
		}
		if value > 0 && strings.HasPrefix(line, " ") {
			stack = append(stack, fields[0])
		}
	}
	flush()
	return shares, total, sc.Err()
}

// classify names the package a sample's CPU time is charged to.
func classify(stack []string) string {
	for _, fn := range stack {
		for _, p := range mapPrefixes {
			if strings.HasPrefix(fn, p) {
				return "runtime.map"
			}
		}
		for _, p := range gcPrefixes {
			if strings.HasPrefix(fn, p) {
				return "runtime.gc"
			}
		}
		if rest, ok := strings.CutPrefix(fn, "vcache/internal/"); ok {
			pkg := rest
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				pkg = rest[:i]
			}
			for _, l := range layerPackages {
				if pkg == l {
					return pkg
				}
			}
			return "other"
		}
	}
	return "other"
}
