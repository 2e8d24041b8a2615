package main

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run's output")

// TestTablesGolden locks the printed tables to golden files: the
// default set (Tables 1, 4 and 5 with the peer-backend rows, the §2.5
// microbenchmark and the §5.1 analysis) at -scale 0.1, the
// multiprocessor table, the default set on a 4-CPU machine, and the
// default set at full scale with no flags. Run with -update after a
// change that alters results on purpose, and say in the change why they
// moved. The three scaled runs take about two seconds, so -short keeps
// them; the full-scale run, which TestPaperClaims shares, takes about
// two more and is skipped under -short.
func TestTablesGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
	}{
		{"tables", []string{"-scale", "0.1", "-writes", "2000"}},
		{"mp", []string{"-mp", "-scale", "0.1"}},
		{"cpus4", []string{"-cpus", "4", "-scale", "0.1", "-writes", "2000"}},
		{"full", nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			var got []byte
			if c.args == nil {
				got = fullTables(t)
			} else {
				got = runTables(t, c.args...)
			}
			checkGolden(t, filepath.Join("testdata", c.name+".golden"), got)
		})
	}
}

// runTables runs the tables command with args and returns its stdout.
func runTables(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TABLES_AS_MAIN=1")
	got, err := cmd.Output()
	if err != nil {
		t.Fatalf("tables %s: %v", strings.Join(args, " "), err)
	}
	return got
}

// fullRun holds the full-scale default output, computed once per test
// binary for every test that reads it.
var fullRun struct {
	once sync.Once
	out  []byte
}

// fullTables returns the output of tables with no flags (scale 1.0),
// skipping the test under -short.
func fullTables(t *testing.T) []byte {
	t.Helper()
	if testing.Short() {
		t.Skip("full-scale tables run skipped under -short")
	}
	fullRun.once.Do(func() { fullRun.out = runTables(t) })
	if fullRun.out == nil {
		t.Fatal("the full-scale tables run failed")
	}
	return fullRun.out
}

// checkGolden compares got with the golden file at path (rewriting it
// first under -update) and reports the first line that differs.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := range max(len(gotLines), len(wantLines)) {
		if i >= len(gotLines) || i >= len(wantLines) || gotLines[i] != wantLines[i] {
			g, w := "(none)", "(none)"
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Fatalf("%s line %d drifted:\ngot:  %s\nwant: %s", path, i+1, g, w)
		}
	}
}
