package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
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

// TestBadScaleIsAnError: a non-finite, non-positive or overflowing
// -scale exits 1 (a panic would exit 2) with a JSON error object on
// stdout, instead of running a meaningless simulation.
func TestBadScaleIsAnError(t *testing.T) {
	for _, scale := range []string{"NaN", "+Inf", "-Inf", "1e300", "0", "-1"} {
		cmd := exec.Command(os.Args[0], "-scale", scale, "-json")
		cmd.Env = append(os.Environ(), "VCACHESIM_AS_MAIN=1")
		out, err := cmd.Output()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("-scale %s: exit %v, want status 1", scale, err)
			continue
		}
		var body struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(out, &body); err != nil || !strings.Contains(body.Error, "scale") {
			t.Errorf("-scale %s: stdout %q is not a JSON scale error", scale, out)
		}
	}
}

// TestBadCPUsIsAnError: a -cpus outside [1, machine.MaxCPUs] exits 1
// with a JSON -cpus error before any simulation state is built.
func TestBadCPUsIsAnError(t *testing.T) {
	for _, cpus := range []string{"0", "-3", "65"} {
		cmd := exec.Command(os.Args[0], "-cpus", cpus, "-scale", "0.01", "-json")
		cmd.Env = append(os.Environ(), "VCACHESIM_AS_MAIN=1")
		out, err := cmd.Output()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("-cpus %s: exit %v, want status 1", cpus, err)
			continue
		}
		var body struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(out, &body); err != nil || body.Error != "-cpus must be between 1 and 64, got "+cpus {
			t.Errorf("-cpus %s: stdout %q is not the JSON -cpus error", cpus, out)
		}
	}
}
