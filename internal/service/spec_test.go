package service

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"vcache/internal/harness"
	"vcache/internal/kernel"
	"vcache/internal/machine"
	"vcache/internal/policy"
	"vcache/internal/sim"
	"vcache/internal/trace"
	"vcache/internal/workload"
)

func TestResolveDefaults(t *testing.T) {
	r, err := Resolve(RunRequest{Workload: "kernel-build", Config: "F"})
	if err != nil {
		t.Fatal(err)
	}
	if r.Spec.Scale.Factor != 1.0 {
		t.Errorf("default scale = %v, want 1.0", r.Spec.Scale.Factor)
	}
	if r.Spec.Kernel.Machine.CPUs != 1 {
		t.Errorf("default cpus = %d, want 1", r.Spec.Kernel.Machine.CPUs)
	}
	if len(r.Key) != 64 {
		t.Errorf("key %q is not a sha256 hex digest", r.Key)
	}
}

// TestContentKeyCanonicalization: the key addresses the resolved
// simulation content, not the request syntax — spelling out a default
// hashes identically to omitting it.
func TestContentKeyCanonicalization(t *testing.T) {
	base, err := Resolve(RunRequest{Workload: "kernel-build", Config: "F"})
	if err != nil {
		t.Fatal(err)
	}
	defaultPurge := uint64(7) // the HP 720 profile's LinePurgeHit
	spelled, err := Resolve(RunRequest{
		Workload: "kernel-build", Config: "F", Scale: 1.0, CPUs: 1, Frames: 1024,
		Timing: &sim.TimingOverride{LinePurgeHit: &defaultPurge},
	})
	if err != nil {
		t.Fatal(err)
	}
	if base.Key != spelled.Key {
		t.Errorf("explicit defaults changed the content key:\n%s\nvs\n%s", base.Key, spelled.Key)
	}
	// Requests differing only in timeout are the same content.
	timed, err := Resolve(RunRequest{Workload: "kernel-build", Config: "F", TimeoutMS: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if base.Key != timed.Key {
		t.Errorf("timeout_ms changed the content key")
	}
	// A real content change must change the key.
	fast := uint64(1)
	other, err := Resolve(RunRequest{Workload: "kernel-build", Config: "F",
		Timing: &sim.TimingOverride{LinePurgeHit: &fast}})
	if err != nil {
		t.Fatal(err)
	}
	if base.Key == other.Key {
		t.Errorf("timing override did not change the content key")
	}
	scaled, err := Resolve(RunRequest{Workload: "kernel-build", Config: "F", Scale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if base.Key == scaled.Key {
		t.Errorf("scale change did not change the content key")
	}
}

func TestResolveValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		req  RunRequest
		want string
	}{
		{"missing workload", RunRequest{Config: "F"}, "missing workload"},
		{"unknown workload", RunRequest{Workload: "x", Config: "F"}, "unknown workload"},
		{"missing config", RunRequest{Workload: "kernel-build"}, "missing config"},
		{"unknown config", RunRequest{Workload: "kernel-build", Config: "Z"}, "unknown config"},
		{"negative scale", RunRequest{Workload: "kernel-build", Config: "F", Scale: -0.5}, "scale"},
		{"NaN scale", RunRequest{Workload: "kernel-build", Config: "F", Scale: math.NaN()}, "scale"},
		{"infinite scale", RunRequest{Workload: "kernel-build", Config: "F", Scale: math.Inf(1)}, "scale"},
		{"overflowing scale", RunRequest{Workload: "kernel-build", Config: "F", Scale: 1e300}, "scale"},
		{"bad cpus", RunRequest{Workload: "kernel-build", Config: "F", CPUs: -1}, "cpus"},
		{"bad frames", RunRequest{Workload: "kernel-build", Config: "F", Frames: -4}, "frames"},
		{"cpus past the limit", RunRequest{Workload: "kernel-build", Config: "F", CPUs: 65}, "cpus"},
		{"huge cpus", RunRequest{Workload: "kernel-build", Config: "F", CPUs: 100000}, "cpus"},
		{"frames past the limit", RunRequest{Workload: "kernel-build", Config: "F", Frames: 1<<20 + 1}, "frames"},
		{"huge frames", RunRequest{Workload: "kernel-build", Config: "F", Frames: 100000000}, "frames"},
		{"bad timeout", RunRequest{Workload: "kernel-build", Config: "F", TimeoutMS: -1}, "timeout_ms"},
	} {
		_, err := Resolve(tc.req)
		if err == nil {
			t.Errorf("%s: Resolve accepted %+v", tc.name, tc.req)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestResolveAcceptsSizeLimits: the largest machine a request may ask
// for resolves, so the limits reject only what lies past them.
func TestResolveAcceptsSizeLimits(t *testing.T) {
	res, err := Resolve(RunRequest{Workload: "kernel-build", Config: "F", CPUs: machine.MaxCPUs, Frames: machine.MaxFrames})
	if err != nil {
		t.Fatal(err)
	}
	if res.Spec.Kernel.Machine.CPUs != machine.MaxCPUs || res.Spec.Kernel.Machine.Frames != machine.MaxFrames {
		t.Fatalf("resolved machine %d CPUs, %d frames", res.Spec.Kernel.Machine.CPUs, res.Spec.Kernel.Machine.Frames)
	}
}

// TestResultCacheLRU: the service's result cache is an LRU of
// Config.CacheEntries bodies, each accounted at its length in bytes.
func TestResultCacheLRU(t *testing.T) {
	c := New(Config{CacheEntries: 2}).cache
	c.Put("a", []byte("aa"))
	c.Put("b", []byte("bb"))
	if _, ok := c.Get("a"); !ok { // a is now most recently used
		t.Fatal("a missing")
	}
	c.Put("c", []byte("cc")) // evicts b, the LRU entry
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted out of LRU order")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c missing")
	}
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 entries / 1 eviction", st)
	}
	if st.Hits != 3 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 3 hits / 1 miss", st)
	}
	if st.Bytes != 4 {
		t.Fatalf("bytes = %d, want 4", st.Bytes)
	}
	// Overwrite keeps byte accounting straight.
	c.Put("a", []byte("aaaa"))
	if st := c.Stats(); st.Bytes != 6 {
		t.Fatalf("bytes after overwrite = %d, want 6", st.Bytes)
	}
}

// TestResolvePeerBackendLabels: the peer backend configuration is
// reachable through the service's config label, and resolves to a
// content key distinct from configuration F's — a cached F result must
// never answer an RLT request. The deleted HYB label is unknown.
func TestResolvePeerBackendLabels(t *testing.T) {
	if _, err := Resolve(RunRequest{Workload: "kernel-build", Config: "HYB"}); err == nil || !strings.Contains(err.Error(), "unknown config") {
		t.Errorf("Resolve(HYB) = %v, want an unknown-configuration error", err)
	}
	keys := make(map[string]string)
	for _, label := range []string{"F", "RLT"} {
		r, err := Resolve(RunRequest{Workload: "kernel-build", Config: label})
		if err != nil {
			t.Fatalf("Resolve(%s): %v", label, err)
		}
		if r.Spec.Config.Label != label {
			t.Errorf("resolved label = %s, want %s", r.Spec.Config.Label, label)
		}
		for other, k := range keys {
			if k == r.Key {
				t.Errorf("%s and %s share a content key", label, other)
			}
		}
		keys[label] = r.Key
	}
}

// TestOriginRoundTrip: harness.Resolve inverts Spec.Origin. For every
// shape of run a surface builds — service requests with and without a
// timing override, vcachesim's origins with the scheduler armed, and
// harness specs on the default or the fast-purge kernel — resolving the
// spec's own origin rebuilds the same kernel configuration, scheduler
// aside (a recording's migrations are in its op log). A default-timing
// spec's origin carries no timing, so its export keeps its bytes.
func TestOriginRoundTrip(t *testing.T) {
	one, seven := uint64(1), uint64(7)
	var specs []harness.Spec
	for _, req := range []RunRequest{
		{Workload: "kernel-build", Config: "F", Timing: &sim.TimingOverride{LinePurgeHit: &seven}},
		{Workload: "afs-bench", Config: "RLT", Scale: 0.1, CPUs: 4, Frames: 2048},
		{Workload: "afs-bench", Config: "F", Scale: 0.2, Timing: &sim.TimingOverride{LineFlushHit: &one, LinePurgeHit: &one}},
		{Workload: "stress-7", Config: "RLT", CPUs: 2, Timing: &sim.TimingOverride{ICachePagePurge: &one}},
	} {
		r, err := Resolve(req)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, r.Spec)
	}
	if o := specs[0].Origin(); o.Timing != nil {
		t.Errorf("default-timing origin carries timing %+v", *o.Timing)
	}
	w, err := workload.ByName("kernel-build")
	if err != nil {
		t.Fatal(err)
	}
	for _, cpus := range []int{1, 4} {
		spec, err := harness.Resolve(trace.Origin{Workload: w.Name, Config: "C", Scale: "custom", Factor: 0.1, CPUs: cpus}, w)
		if err != nil {
			t.Fatal(err)
		}
		spec.Kernel.Sched = kernel.SchedConfig{Quantum: 50000, Seed: 1}
		specs = append(specs, spec)
	}
	fast := kernel.DefaultConfig(policy.New())
	fast.Machine.Timing = sim.FastPurgeTiming()
	specs = append(specs,
		harness.Spec{Workload: w, Config: policy.New(), Scale: workload.Small()},
		harness.Spec{Workload: w, Config: policy.New(), Scale: workload.Small(), Kernel: &fast})

	for _, spec := range specs {
		o := spec.Origin()
		got, err := harness.Resolve(o, spec.Workload)
		if err != nil {
			t.Errorf("%s: Resolve(%+v): %v", spec.Label(), o, err)
			continue
		}
		want := kernel.DefaultConfig(spec.Config)
		if spec.Kernel != nil {
			want = *spec.Kernel
		}
		want.Sched = kernel.SchedConfig{}
		if !reflect.DeepEqual(*got.Kernel, want) {
			t.Errorf("%s: origin %+v resolves to kernel\n%+v\nwant\n%+v", spec.Label(), o, *got.Kernel, want)
		}
		if !reflect.DeepEqual(got.Origin(), o) {
			t.Errorf("%s: origin %+v re-resolves to origin %+v", spec.Label(), o, got.Origin())
		}
	}
}
