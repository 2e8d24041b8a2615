package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the tests run this test binary as the vcachefuzz command
// itself: with VCACHEFUZZ_AS_MAIN=1 it executes main instead of the
// tests.
func TestMain(m *testing.M) {
	if os.Getenv("VCACHEFUZZ_AS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadInvocationIsOneError: a malformed flag, a negative budget or
// program length, an unknown configuration label and a corpus directory
// that cannot be made each end vcachefuzz before its campaign runs, with
// a non-zero status, one line on stderr and nothing on stdout, never a
// panic.
func TestBadInvocationIsOneError(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-budget", "-1"},
		{"-steps", "-1"},
		{"-configs", "ZZ"},
		{"-corpus", filepath.Join(file, "corpus")},
	} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "VCACHEFUZZ_AS_MAIN=1")
		var stderr strings.Builder
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() == 0 {
			t.Errorf("%v: exit %v, want a non-zero status", args, err)
		}
		if msg := stderr.String(); strings.Count(msg, "\n") != 1 || strings.Contains(msg, "panic") {
			t.Errorf("%v: stderr %q, want one error line", args, msg)
		}
		if len(out) != 0 {
			t.Errorf("%v: stdout %q, want none", args, out)
		}
	}
}
