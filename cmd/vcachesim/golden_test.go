package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"vcache/internal/policy"
	"vcache/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/results.golden from this run's output")

// TestResultsGolden locks vcachesim's -json results to a golden file:
// every configuration of policy.All() on each of the three benchmarks at
// 1 and 4 CPUs, at -scale 0.1. Each cell also runs with -warm-boot,
// which measures from a fork of the post-setup snapshot, and must print
// the same bytes as the cold run. Run with -update after a change that
// alters results on purpose, and say in the change why they moved. The
// 312 runs take seconds, but minutes under the race detector, so -short
// skips them.
func TestResultsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("the results golden matrix runs without -short")
	}
	type cell struct {
		args       []string
		cold, warm []byte
	}
	var cells []*cell
	for _, c := range policy.All() {
		for _, w := range workload.Benchmarks() {
			for _, cpus := range []string{"1", "4"} {
				cells = append(cells, &cell{args: []string{"-workload", w.Name, "-config", c.Label, "-cpus", cpus, "-scale", "0.1", "-json"}})
			}
		}
	}
	var wg sync.WaitGroup
	next := make(chan *cell)
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range next {
				var err error
				if c.cold, err = vcachesim(c.args...); err != nil {
					t.Errorf("vcachesim %s: %v", strings.Join(c.args, " "), err)
				}
				if c.warm, err = vcachesim(append(c.args, "-warm-boot")...); err != nil {
					t.Errorf("vcachesim %s -warm-boot: %v", strings.Join(c.args, " "), err)
				}
			}
		}()
	}
	for _, c := range cells {
		next <- c
	}
	close(next)
	wg.Wait()

	var got bytes.Buffer
	for _, c := range cells {
		if !bytes.Equal(c.warm, c.cold) {
			t.Errorf("%s: the -warm-boot result differs from the cold run", strings.Join(c.args, " "))
		}
		fmt.Fprintf(&got, "== vcachesim %s\n%s", strings.Join(c.args, " "), c.cold)
	}
	path := filepath.Join("testdata", "results.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with `go test ./cmd/vcachesim -run Golden -update`): %v", err)
	}
	gotCells, wantCells := strings.Split(got.String(), "== "), strings.Split(string(want), "== ")
	for i := range max(len(gotCells), len(wantCells)) {
		if i >= len(gotCells) || i >= len(wantCells) || gotCells[i] != wantCells[i] {
			g, w := "(none)", "(none)"
			if i < len(gotCells) {
				g = gotCells[i]
			}
			if i < len(wantCells) {
				w = wantCells[i]
			}
			t.Fatalf("result %d drifted from the golden file:\n--- got ---\n%s--- want ---\n%s", i, g, w)
		}
	}
}
