package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the tests run this test binary as the vcachesim command
// itself: with VCACHESIM_AS_MAIN=1 it executes main instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("VCACHESIM_AS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// vcachesim runs this test binary as the vcachesim command with args
// and returns its stdout.
func vcachesim(args ...string) ([]byte, error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "VCACHESIM_AS_MAIN=1")
	return cmd.Output()
}

// jsonError runs vcachesim with args plus -json and returns the error
// string it printed, or ok false unless it exited 1 (a panic would exit
// 2) with a JSON error object on stdout.
func jsonError(t *testing.T, args ...string) (msg string, ok bool) {
	t.Helper()
	out, err := vcachesim(append(args, "-json")...)
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Errorf("%v: exit %v, want status 1", args, err)
		return "", false
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(out, &body); err != nil {
		t.Errorf("%v: stdout %q is not a JSON error", args, out)
		return "", false
	}
	return body.Error, true
}

// TestBadScaleIsAnError: a non-finite, non-positive or overflowing
// -scale is a JSON scale error instead of a meaningless simulation.
func TestBadScaleIsAnError(t *testing.T) {
	for _, scale := range []string{"NaN", "+Inf", "-Inf", "1e300", "0", "-1"} {
		if msg, ok := jsonError(t, "-scale", scale); ok && !strings.Contains(msg, "scale") {
			t.Errorf("-scale %s: error %q does not name the scale", scale, msg)
		}
	}
}

// TestBadCPUsIsAnError: a -cpus outside [1, machine.MaxCPUs] is a JSON
// -cpus error before any simulation state is built.
func TestBadCPUsIsAnError(t *testing.T) {
	for _, cpus := range []string{"0", "-3", "65"} {
		if msg, ok := jsonError(t, "-cpus", cpus, "-scale", "0.01"); ok && msg != "-cpus must be between 1 and 64, got "+cpus {
			t.Errorf("-cpus %s: error %q, want the -cpus error", cpus, msg)
		}
	}
}

// TestBadTraceIsAnError: a negative -trace, or one past maxTraceEvents,
// is a JSON -trace error instead of an untraced run or a ring
// allocation that exhausts the host.
func TestBadTraceIsAnError(t *testing.T) {
	for _, n := range []string{"-1", "-5", "1048577", "100000000000"} {
		if msg, ok := jsonError(t, "-trace", n, "-scale", "0.01"); ok && msg != "-trace must be between 0 and 1048576, got "+n {
			t.Errorf("-trace %s: error %q, want the -trace error", n, msg)
		}
	}
}

// TestUnwritableOutputIsAnError: an unwritable -record or -trace-json
// path is a JSON error before the run, not a result on stdout followed
// by a plain error on stderr.
func TestUnwritableOutputIsAnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing", "y.json")
	for _, flag := range []string{"-record", "-trace-json"} {
		if msg, ok := jsonError(t, flag, path, "-scale", "0.01"); ok && !strings.Contains(msg, path) {
			t.Errorf("%s %s: error %q does not name the path", flag, path, msg)
		}
	}
}

// TestBadFlagIsOneError: an unknown flag or a malformed value is one
// JSON error object on stdout when -json is given — before or after the
// bad flag — and otherwise one line on stderr; never the flag list.
func TestBadFlagIsOneError(t *testing.T) {
	for _, args := range [][]string{{"-bogus"}, {"-scale", "x"}} {
		if msg, ok := jsonError(t, args...); ok && !strings.Contains(msg, args[0]) {
			t.Errorf("%v -json: error %q does not name the flag", args, msg)
		}
		for _, a := range [][]string{append([]string{"-json"}, args...), args} {
			cmd := exec.Command(os.Args[0], a...)
			cmd.Env = append(os.Environ(), "VCACHESIM_AS_MAIN=1")
			var stderr strings.Builder
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() == 0 {
				t.Errorf("%v: exit %v, want a non-zero status", a, err)
			}
			var body struct {
				Error string `json:"error"`
			}
			msg := stderr.String()
			if a[0] == "-json" {
				if json.Unmarshal(out, &body) != nil || body.Error == "" || msg != "" {
					t.Errorf("%v: stdout %q stderr %q, want one JSON error object and no stderr", a, out, msg)
				}
			} else if len(out) != 0 || strings.Count(msg, "\n") != 1 {
				t.Errorf("%v: stdout %q stderr %q, want one error line on stderr", a, out, msg)
			}
		}
	}
}
