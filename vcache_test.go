package vcache

import (
	"strings"
	"testing"

	"vcache/internal/kernel"
)

func TestPolicyLookup(t *testing.T) {
	if PolicyOld().Label != "A" || PolicyNew().Label != "F" {
		t.Fatal("old/new labels wrong")
	}
	if len(Policies()) != 6 || len(Table5Policies()) != 5 {
		t.Fatal("policy list sizes wrong")
	}
	for _, label := range []string{"A", "F", "Sun", "Tut", "CMU", "RLT"} {
		p, err := PolicyByLabel(label)
		if err != nil || p.Label != label {
			t.Errorf("PolicyByLabel(%q) = %v, %v", label, p.Label, err)
		}
	}
	if _, err := PolicyByLabel("Z"); err == nil {
		t.Error("unknown label accepted")
	}
}

func TestSystemLifecycle(t *testing.T) {
	sys, err := NewSystem(PolicyNew(), WithFrames(512))
	if err != nil {
		t.Fatal(err)
	}
	k := sys.Kernel()
	p, err := k.Spawn(nil, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.TouchHeap(p, 0, 64); err != nil {
		t.Fatal(err)
	}
	if err := k.ReadHeap(p, 0, 64); err != nil {
		t.Fatal(err)
	}
	k.Exit(p)
	if sys.Violations() != 0 {
		t.Fatalf("%d stale transfers", sys.Violations())
	}
	if sys.Seconds() <= 0 {
		t.Error("no simulated time elapsed")
	}
	r := sys.Collect("api-test")
	if r.Workload != "api-test" || r.PM.MappingFaults == 0 {
		t.Errorf("Collect = %+v", r.PM)
	}
}

func TestRunBenchmarkAPI(t *testing.T) {
	names := BenchmarkNames()
	if len(names) != 3 {
		t.Fatalf("benchmarks = %v", names)
	}
	r, err := RunBenchmark("latex-paper", PolicyNew(), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if r.OracleViolations != 0 || r.Seconds <= 0 {
		t.Fatalf("result = %+v", r)
	}
	if _, err := RunBenchmark("nope", PolicyNew(), 1); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestRunStressAPIWithVariants(t *testing.T) {
	for _, opt := range []Option{
		WithWriteThroughDCache(),
		WithPhysicallyIndexedDCache(),
		WithDCacheWays(2),
		WithFastPurge(),
	} {
		r, err := RunStress(5, 150, PolicyNew(), opt)
		if err != nil {
			t.Fatal(err)
		}
		if r.OracleViolations != 0 {
			t.Fatalf("%d stale transfers", r.OracleViolations)
		}
	}
}

func TestRunAliasMicroAPI(t *testing.T) {
	aligned, err := RunAliasMicro(PolicyNew(), 2000, true)
	if err != nil {
		t.Fatal(err)
	}
	unaligned, err := RunAliasMicro(PolicyNew(), 2000, false)
	if err != nil {
		t.Fatal(err)
	}
	if unaligned.Seconds <= aligned.Seconds {
		t.Error("unaligned aliases not slower than aligned")
	}
}

func TestTableRendering(t *testing.T) {
	if !strings.Contains(Table2(), "CPU-read") {
		t.Error("Table2 malformed")
	}
	if !strings.Contains(Table3(), "cache_dirty") {
		t.Error("Table3 malformed")
	}
}

func TestWithCPUsOption(t *testing.T) {
	r, err := RunStress(9, 200, PolicyNew(), WithCPUs(3))
	if err != nil {
		t.Fatal(err)
	}
	if r.OracleViolations != 0 {
		t.Fatalf("%d stale transfers on 3 CPUs", r.OracleViolations)
	}
}

// TestWaysSmallerThanPageIsAnError: an associativity that leaves each
// way smaller than a page leaves the cache no whole page to color by;
// building such a system must fail with an error, not panic.
func TestWaysSmallerThanPageIsAnError(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Option
	}{
		{"dcache-128-ways", WithDCacheWays(128)},
		{"dcache-8192-ways", WithDCacheWays(8192)},
		{"icache-64-ways", func(c *kernel.Config) { c.Machine.ICacheWays = 64 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("NewSystem panicked: %v", r)
				}
			}()
			if _, err := NewSystem(PolicyNew(), tc.opt); err == nil {
				t.Fatal("NewSystem accepted ways smaller than a page")
			}
		})
	}
}
