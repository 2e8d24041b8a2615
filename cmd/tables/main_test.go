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

// TestBadScaleIsAnError: a non-finite, non-positive or overflowing
// -scale exits 1 (a panic would exit 2) with a scale error on stderr,
// before any table is computed.
func TestBadScaleIsAnError(t *testing.T) {
	for _, scale := range []string{"NaN", "+Inf", "1e300", "0", "-0.5"} {
		cmd := exec.Command(os.Args[0], "-scale", scale, "-table", "4")
		cmd.Env = append(os.Environ(), "TABLES_AS_MAIN=1")
		var stderr strings.Builder
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("-scale %s: exit %v, want status 1", scale, err)
			continue
		}
		if len(out) != 0 || !strings.Contains(stderr.String(), "-scale") {
			t.Errorf("-scale %s: stdout %q stderr %q, want only a scale error", scale, out, stderr.String())
		}
	}
}

// TestBadCPUsIsAnError: a -cpus outside [1, machine.MaxCPUs] exits 1
// with the -cpus error vcachesim gives, instead of silently printing
// uniprocessor tables or exhausting host memory.
func TestBadCPUsIsAnError(t *testing.T) {
	for _, cpus := range []string{"0", "-3", "65"} {
		cmd := exec.Command(os.Args[0], "-cpus", cpus, "-table", "4", "-scale", "0.01")
		cmd.Env = append(os.Environ(), "TABLES_AS_MAIN=1")
		var stderr strings.Builder
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("-cpus %s: exit %v, want status 1", cpus, err)
			continue
		}
		if len(out) != 0 || !strings.Contains(stderr.String(), "-cpus must be between 1 and 64, got "+cpus) {
			t.Errorf("-cpus %s: stdout %q stderr %q, want only a -cpus error", cpus, out, stderr.String())
		}
	}
}
