package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run's output")

// TestMain lets the tests run this test binary as the transitions
// command itself: with TRANSITIONS_AS_MAIN=1 it executes main instead of
// the tests.
func TestMain(m *testing.M) {
	if os.Getenv("TRANSITIONS_AS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestTransitionsGolden locks the printed Tables 2 and 3, and the
// Section 3.3 variant tables, to golden files. Run with -update after a
// change to the model, and say in the change why the tables moved.
func TestTransitionsGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
	}{
		{"transitions", nil},
		{"variants", []string{"-variants"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], c.args...)
			cmd.Env = append(os.Environ(), "TRANSITIONS_AS_MAIN=1")
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("transitions %s: %v", strings.Join(c.args, " "), err)
			}
			path := filepath.Join("testdata", c.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
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
			if string(got) != string(want) {
				t.Errorf("transitions %s drifted from %s:\n--- got ---\n%s--- want ---\n%s",
					strings.Join(c.args, " "), path, got, want)
			}
		})
	}
}

// TestBadFlagIsOneError: an unknown flag or a malformed value is one
// line on stderr and a non-zero exit, not the flag list.
func TestBadFlagIsOneError(t *testing.T) {
	for _, args := range [][]string{{"-bogus"}, {"-table", "x"}} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "TRANSITIONS_AS_MAIN=1")
		var stderr strings.Builder
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() == 0 {
			t.Errorf("%v: exit %v, want a non-zero status", args, err)
		}
		if msg := stderr.String(); len(out) != 0 || strings.Count(msg, "\n") != 1 {
			t.Errorf("%v: stdout %q stderr %q, want one error line on stderr", args, out, msg)
		}
	}
}
