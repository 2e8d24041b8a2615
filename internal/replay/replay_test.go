package replay

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"vcache/internal/harness"
	"vcache/internal/kernel"
	"vcache/internal/policy"
	"vcache/internal/trace"
	"vcache/internal/workload"
)

func TestParseNoteRoundTrip(t *testing.T) {
	notes := []string{
		"spawn pid=3 img=bin/cc text=4 heap=16",
		"spawn pid=1 img=- text=0 heap=16",
		"fork pid=5 parent=3",
		"exit pid=5",
		"syscall pid=1",
		"create pid=1 file=src/c001.c",
		"open pid=1 file=bin/ld",
		"remove pid=1 file=tmp/x",
		"readf pid=2 file=f00001 page=1 heap=3",
		"writef pid=2 file=f00001 page=0 heap=1",
		"readfd pid=2 file=f00001 page=1 heap=2",
		"touch pid=1 page=3 words=64",
		"readh pid=1 page=0 words=32",
		"runtext pid=3 words=8",
		"send from=1 page=4 to=2 vpn=0x10004",
		"sharep from=1 page=5 to=2 vpn=0x10005",
		"readp pid=2 vpn=0x10004 words=32",
		"writep pid=2 vpn=0x10004 words=16",
		"mapfile pid=1 file=f00002 obj=2 pages=2 vpn=0x40000",
		"writec file=bin/stress pages=4",
		"compute cycles=1200",
		"sync",
		"flushp pid=1 vpn=0x10002",
		"purgep pid=2 vpn=0x10002",
	}
	for _, n := range notes {
		op, err := ParseNote(n)
		if err != nil {
			t.Fatalf("ParseNote(%q): %v", n, err)
		}
		if got := op.Note(); got != n {
			t.Errorf("round trip: %q -> %q", n, got)
		}
	}
}

func TestParseNoteRejects(t *testing.T) {
	bad := []string{
		"",
		"frobnicate pid=1",
		"touch pid=1 page=3",                  // missing arg
		"touch pid=1 page=3 words=64 extra=1", // extra arg
		"touch page=3 pid=1 words=64",         // wrong order
		"touch pid=1 page=3 words",            // no value
		"sync now",                            // sync takes no args
	}
	for _, n := range bad {
		if _, err := ParseNote(n); err == nil {
			t.Errorf("ParseNote(%q): expected error", n)
		}
	}
}

func TestParseRejectsDroppedAndMissingOrigin(t *testing.T) {
	ev := []trace.Event{{Kind: trace.EvOp, Note: "sync"}}
	if _, err := Parse(trace.Export{Events: ev}); err == nil {
		t.Error("Parse accepted export without origin")
	}
	o := &trace.Origin{Workload: "x", Config: "A"}
	if _, err := Parse(trace.Export{Origin: o, Dropped: 3, Retained: 1, Events: ev}); err == nil {
		t.Error("Parse accepted export with dropped events")
	}
	if _, err := Parse(trace.Export{Origin: o}); err == nil {
		t.Error("Parse accepted export with no op events")
	}
	if _, err := Parse(trace.Export{Origin: o, Retained: 1, Events: ev}); err != nil {
		t.Errorf("Parse rejected a well-formed export: %v", err)
	}
}

// TestParseRejectsRetainedMismatch: the retained count sizes the
// replay's trace ring, so an export whose count disagrees with the
// events it carries is a parse error — not a ring allocation that
// exhausts the host, and not a misleading closure failure later.
func TestParseRejectsRetainedMismatch(t *testing.T) {
	ev := []trace.Event{{Kind: trace.EvOp, Note: "sync"}}
	o := &trace.Origin{Workload: "x", Config: "F"}
	for _, retained := range []int{100000000000, 2, 0, -3} {
		_, err := Parse(trace.Export{Origin: o, Retained: retained, Events: ev})
		if err == nil || !strings.Contains(err.Error(), "retained") {
			t.Errorf("Parse(retained %d, 1 event) = %v, want a retained-count error", retained, err)
		}
	}
	pr, err := Parse(trace.Export{Origin: o, Retained: 1, Events: ev})
	if err != nil {
		t.Fatal(err)
	}
	if pr.TraceN != 1 {
		t.Errorf("TraceN = %d, want 1", pr.TraceN)
	}
}

// TestClosure proves the record→replay→re-export closure: for every
// configuration and benchmark, replaying an exported trace on a fresh
// system reproduces the original run exactly — DeepEqual Result,
// byte-identical re-exported trace JSON. The last row runs under a
// Section 5.1 what-if timing override, which the origin must carry for
// the replay to charge the same costs.
func TestClosure(t *testing.T) {
	workloads := []string{"stress-42", "afs-bench"}
	if !testing.Short() {
		workloads = append(workloads, "latex-paper", "kernel-build")
	}
	type row struct {
		name string
		cfg  policy.Config
		kc   *kernel.Config
	}
	var rows []row
	for _, cfg := range policy.Configs() {
		for _, name := range workloads {
			rows = append(rows, row{name, cfg, nil})
		}
	}
	fast := kernel.DefaultConfig(policy.New())
	fast.Machine.Timing.LineFlushHit, fast.Machine.Timing.LinePurgeHit = 1, 1
	rows = append(rows, row{"afs-bench", policy.New(), &fast})
	for _, r := range rows {
		label := r.cfg.Label + "/" + r.name
		if r.kc != nil {
			label += "/timing"
		}
		t.Run(label, func(t *testing.T) {
			w, err := workload.ByName(r.name)
			if err != nil {
				t.Fatal(err)
			}
			spec := harness.Spec{
				Workload: w,
				Config:   r.cfg,
				Scale:    workload.Small(),
				Kernel:   r.kc,
				TraceN:   1 << 16,
			}
			if err := VerifyClosure(context.Background(), spec); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestClosureMP proves the closure holds on a multiprocessor with the
// deterministic preemption scheduler armed: migrations recorded as
// "sched" ops replay through the same Migrate path on a kernel with no
// scheduler of its own, so the replayed run reproduces the original's
// Result and trace exactly — including every cross-CPU consistency
// event the migrations provoked.
func TestClosureMP(t *testing.T) {
	cpuCounts := []int{2, 4}
	if testing.Short() {
		cpuCounts = []int{4}
	}
	for _, cpus := range cpuCounts {
		for _, cfg := range []policy.Config{policy.Old(), policy.New()} {
			t.Run(fmt.Sprintf("%s/%dcpu", cfg.Label, cpus), func(t *testing.T) {
				kc := kernel.DefaultConfig(cfg)
				kc.Machine.CPUs = cpus
				kc.Sched = kernel.SchedConfig{Quantum: 20000, Seed: 7}
				w, err := workload.ByName("afs-bench")
				if err != nil {
					t.Fatal(err)
				}
				spec := harness.Spec{
					Workload: w,
					Config:   cfg,
					Scale:    workload.Small(),
					Kernel:   &kc,
					TraceN:   1 << 16,
				}
				if err := VerifyClosure(context.Background(), spec); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestCXLPCC runs the scenario under every configuration (oracle-clean
// everywhere) and proves the same closure for a recorded scenario run.
func TestCXLPCC(t *testing.T) {
	for _, cfg := range policy.Configs() {
		t.Run(cfg.Label, func(t *testing.T) {
			w, err := CXLPCCWorkload(cfg.Label, workload.Small())
			if err != nil {
				t.Fatal(err)
			}
			spec := harness.Spec{
				Workload: w,
				Config:   cfg,
				Scale:    workload.Small(),
				TraceN:   1 << 16,
			}
			res, ex, err := Record(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := res.CheckClean(); err != nil {
				t.Fatal(err)
			}
			gotRes, gotEx, err := Replay(context.Background(), ex)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotRes, res) {
				t.Error("replayed scenario Result differs")
			}
			if err := CompareExports(ex, gotEx); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestMinimizedSubsetReplays exercises the translation tables: a
// hand-picked subset of a recorded program (what the minimizer
// produces) must still execute, with kernel-chosen values rebound.
func TestMinimizedSubsetReplays(t *testing.T) {
	pr, err := FromNotes("subset", "F", []string{
		"spawn pid=7 img=- text=0 heap=8", // recorded pid differs from replay's
		"spawn pid=9 img=- text=0 heap=8",
		"touch pid=7 page=2 words=32",
		"flushp pid=7 vpn=0x10002",
		"send from=7 page=2 to=9 vpn=0x31337",
		"readp pid=9 vpn=0x31337 words=16",
		"purgep pid=9 vpn=0x31337",
		"exit pid=9",
		"exit pid=7",
	})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := pr.Spec()
	if err != nil {
		t.Fatal(err)
	}
	spec.TraceN = 1 << 12
	res, _, _, err := harness.Exec(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckClean(); err != nil {
		t.Fatal(err)
	}
}

// TestUnboundReferenceFails pins the minimizer's rejection signal: an
// op referring to a pid no surviving op bound must error, not guess.
func TestUnboundReferenceFails(t *testing.T) {
	pr, err := FromNotes("dangling", "A", []string{
		"touch pid=7 page=2 words=32",
	})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := pr.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := harness.Exec(context.Background(), spec, nil); err == nil {
		t.Fatal("replay of a dangling pid reference succeeded")
	}
}

// TestHeapPageOutOfRangeFails: a replay program naming a heap page past
// the process' heap is an error. Page 1<<60 wraps around to heap page
// 0's address, so before the range check "readh" and "readf" silently
// read and wrote page 0 instead.
func TestHeapPageOutOfRangeFails(t *testing.T) {
	for _, op := range []string{
		"readh pid=1 page=1152921504606846976 words=8",
		"readh pid=1 page=16 words=8",
		"readf pid=1 file=f page=0 heap=1152921504606846976",
		"writef pid=1 file=f page=0 heap=1152921504606846976",
	} {
		pr, err := FromNotes("bad-heap-page", "F", []string{
			"spawn pid=1 img=- text=0 heap=16",
			"create pid=1 file=f",
			"writef pid=1 file=f page=0 heap=0",
			op,
		})
		if err != nil {
			t.Fatal(err)
		}
		spec, err := pr.Spec()
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := harness.Exec(context.Background(), spec, nil); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("%q: got %v, want an out-of-range error", op, err)
		}
	}
}

// TestWordCountPastMaxIntFails: a word count that does not fit an int
// is an error. It used to wrap to -1, perform one store, and log
// "words=-1" — a trace whose replay then failed to parse.
func TestWordCountPastMaxIntFails(t *testing.T) {
	for _, op := range []string{
		"touch pid=1 page=0 words=18446744073709551615",
		"readh pid=1 page=0 words=9223372036854775808",
		"runtext pid=1 words=18446744073709551615",
	} {
		pr, err := FromNotes("huge-words", "F", []string{
			"spawn pid=1 img=- text=0 heap=16",
			op,
		})
		if err != nil {
			t.Fatal(err)
		}
		spec, err := pr.Spec()
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := harness.Exec(context.Background(), spec, nil); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("%q: got %v, want an out-of-range error", op, err)
		}
	}
}

// TestClosurePeerBackends proves the record→replay→re-export closure
// for the peer consistency backend: a run recorded under RLT-VIVT
// replays to a DeepEqual Result and a byte-identical re-exported trace
// — including the backend's own counters and cycle categories. A
// recording whose origin names the deleted HYB backend fails to replay.
func TestClosurePeerBackends(t *testing.T) {
	workloads := []string{"stress-42"}
	if !testing.Short() {
		workloads = append(workloads, "afs-bench")
	}
	for _, cfg := range policy.PeerBackends() {
		for _, name := range workloads {
			t.Run(cfg.Label+"/"+name, func(t *testing.T) {
				w, err := workload.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				spec := harness.Spec{
					Workload: w,
					Config:   cfg,
					Scale:    workload.Small(),
					TraceN:   1 << 16,
				}
				if err := VerifyClosure(context.Background(), spec); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
	t.Run("HYB/rejected", func(t *testing.T) {
		w, err := workload.ByName("stress-42")
		if err != nil {
			t.Fatal(err)
		}
		_, ex, err := Record(context.Background(), harness.Spec{Workload: w, Config: policy.RLT(), Scale: workload.Small(), TraceN: 1 << 16})
		if err != nil {
			t.Fatal(err)
		}
		o := *ex.Origin
		o.Config = "HYB"
		ex.Origin = &o
		if _, _, err := Replay(context.Background(), ex); err == nil || !strings.Contains(err.Error(), "unknown configuration") {
			t.Fatalf("replay of a HYB recording: %v, want an unknown-configuration error", err)
		}
	})
}

// TestParseRejectsUnknownConfig pins the hard-error-at-parse-time
// contract: a recorded trace whose origin names a configuration label
// this build does not know (a corrupted file, or an export from a
// newer build) must fail in Parse — before any simulation state exists
// — and never fall back silently to some other configuration.
func TestParseRejectsUnknownConfig(t *testing.T) {
	ev := []trace.Event{{Kind: trace.EvOp, Note: "sync"}}
	for _, label := range []string{"ZZZ", "rlt", "f", "HYB"} { // unknown (HYB is deleted); labels are case-sensitive
		o := &trace.Origin{Workload: "x", Config: label}
		if _, err := Parse(trace.Export{Origin: o, Retained: 1, Events: ev}); err == nil {
			t.Errorf("Parse accepted unknown config label %q", label)
		}
	}
	// The peer backend label itself parses.
	o := &trace.Origin{Workload: "x", Config: "RLT"}
	if _, err := Parse(trace.Export{Origin: o, Retained: 1, Events: ev}); err != nil {
		t.Errorf("Parse rejected backend label RLT: %v", err)
	}
}

// TestSpecRejectsBadOriginSize: an origin machine past the size limits,
// or with a negative size, is an error from Spec — before any
// simulation state exists — instead of an allocation that exhausts the
// host or a silent replay at the default size. Sizes within the limits
// carry over to the replay's kernel.
func TestSpecRejectsBadOriginSize(t *testing.T) {
	ev := []trace.Event{{Kind: trace.EvOp, Note: "sync"}}
	for _, o := range []trace.Origin{
		{CPUs: 65},
		{CPUs: 100000},
		{CPUs: -1},
		{Frames: 1<<20 + 1},
		{Frames: 100000000},
		{Frames: -4},
	} {
		o.Workload, o.Config = "x", "F"
		pr, err := Parse(trace.Export{Origin: &o, Retained: 1, Events: ev})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pr.Spec(); err == nil {
			t.Errorf("Spec accepted origin cpus %d, frames %d", o.CPUs, o.Frames)
		}
	}
	o := trace.Origin{Workload: "x", Config: "F", CPUs: 2, Frames: 2048}
	pr, err := Parse(trace.Export{Origin: &o, Retained: 1, Events: ev})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := pr.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Kernel.Machine.CPUs != 2 || spec.Kernel.Machine.Frames != 2048 {
		t.Errorf("replay machine %d CPUs, %d frames; want 2, 2048", spec.Kernel.Machine.CPUs, spec.Kernel.Machine.Frames)
	}
}
