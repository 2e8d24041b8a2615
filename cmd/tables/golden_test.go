package main

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run's output")

// TestTablesGolden locks the printed tables to golden files at -scale
// 0.1: the default set (Tables 1, 4 and 5 with the peer-backend rows,
// the §2.5 microbenchmark and the §5.1 analysis), the multiprocessor
// table, and the default set on a 4-CPU machine. Run with -update after
// a change that alters results on purpose, and say in the change why
// they moved. The three runs take about two seconds, so -short keeps
// them.
func TestTablesGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
	}{
		{"tables", []string{"-scale", "0.1", "-writes", "2000"}},
		{"mp", []string{"-mp", "-scale", "0.1"}},
		{"cpus4", []string{"-cpus", "4", "-scale", "0.1", "-writes", "2000"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], c.args...)
			cmd.Env = append(os.Environ(), "TABLES_AS_MAIN=1")
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("tables %s: %v", strings.Join(c.args, " "), err)
			}
			checkGolden(t, filepath.Join("testdata", c.name+".golden"), got)
		})
	}
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
