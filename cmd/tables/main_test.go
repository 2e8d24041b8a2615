package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the tests run this test binary as the tables command
// itself: with TABLES_AS_MAIN=1 it executes main instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("TABLES_AS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// wantFlagError runs tables with args and requires exit status 1 (a
// panic would exit 2), an empty stdout and want on stderr: the flag is
// rejected before any table is computed.
func wantFlagError(t *testing.T, want string, args ...string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TABLES_AS_MAIN=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Errorf("%v: exit %v, want status 1", args, err)
		return
	}
	if len(out) != 0 || !strings.Contains(stderr.String(), want) {
		t.Errorf("%v: stdout %q stderr %q, want only %q", args, out, stderr.String(), want)
	}
}

// TestBadScaleIsAnError: a non-finite, non-positive or overflowing
// -scale is a scale error.
func TestBadScaleIsAnError(t *testing.T) {
	for _, scale := range []string{"NaN", "+Inf", "1e300", "0", "-0.5"} {
		wantFlagError(t, "-scale", "-scale", scale, "-table", "4")
	}
}

// TestBadCPUsIsAnError: a -cpus outside [1, machine.MaxCPUs] is the
// -cpus error vcachesim gives, instead of silently printing
// uniprocessor tables or exhausting host memory.
func TestBadCPUsIsAnError(t *testing.T) {
	for _, cpus := range []string{"0", "-3", "65"} {
		wantFlagError(t, "-cpus must be between 1 and 64, got "+cpus, "-cpus", cpus, "-table", "4", "-scale", "0.01")
	}
}

// TestBadWritesIsAnError: a -writes below 1 is an error instead of a
// meaningless microbenchmark slowdown.
func TestBadWritesIsAnError(t *testing.T) {
	for _, writes := range []string{"0", "-5"} {
		wantFlagError(t, "-writes must be at least 1, got "+writes, "-micro", "-writes", writes)
	}
}

// TestBadFlagIsOneError: an unknown flag or a malformed value is one
// line on stderr and a non-zero exit, not the flag list.
func TestBadFlagIsOneError(t *testing.T) {
	for _, args := range [][]string{{"-bogus"}, {"-table", "x"}, {"-scale", "0.01", "-no-such-flag"}} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "TABLES_AS_MAIN=1")
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
