package main

import (
	"context"
	"errors"
	"net"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestMain lets the tests run this test binary as the vcached command
// itself: with VCACHED_AS_MAIN=1 it executes main instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("VCACHED_AS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadInvocationIsOneError: a malformed flag, a negative snapshot
// pool and a serving or debug address already in use each end vcached
// before it serves, with a non-zero status and one line on stderr, never
// a panic.
func TestBadInvocationIsOneError(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-snapshot-pool", "-1"},
		{"-addr", busy.Addr().String(), "-quiet"},
		{"-addr", "127.0.0.1:0", "-debug-addr", busy.Addr().String(), "-quiet"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		cmd := exec.CommandContext(ctx, os.Args[0], args...)
		cmd.Env = append(os.Environ(), "VCACHED_AS_MAIN=1")
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() == 0 {
			t.Errorf("%v: exit %v, want a non-zero status", args, err)
		}
		if msg := stderr.String(); strings.Count(msg, "\n") != 1 || strings.Contains(msg, "panic") {
			t.Errorf("%v: stderr %q, want one error line", args, msg)
		}
	}
}
