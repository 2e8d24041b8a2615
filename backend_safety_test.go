// Backend fast-path safety: every consistency backend runs the bulk
// fast paths, so each must produce the same observations on them as on
// the word-at-a-time reference pipeline. A new backend kind added
// without a reachable configuration, or whose runs diverge, fails here.
package vcache

import (
	"reflect"
	"testing"

	"vcache/internal/arch"
	"vcache/internal/core"
	"vcache/internal/harness"
	"vcache/internal/kernel"
	"vcache/internal/machine"
	"vcache/internal/pmap"
	"vcache/internal/policy"
	"vcache/internal/vm"
	"vcache/internal/workload"
)

// backendConfig finds the policy configuration that runs under kind.
func backendConfig(t *testing.T, kind core.BackendKind) policy.Config {
	t.Helper()
	for _, cfg := range policy.All() {
		if cfg.Features.Backend == kind {
			return cfg
		}
	}
	t.Fatalf("no policy configuration runs backend %v — every backend must be reachable from a label", kind)
	return policy.Config{}
}

// TestEveryBackendFastPathSafe: oracle off (the configuration where the
// bulk paths actually engage), fast vs reference pipeline, the Results
// of every backend must be deeply equal — every cycle, every counter.
func TestEveryBackendFastPathSafe(t *testing.T) {
	for kind := range core.NumBackends {
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			cfg := backendConfig(t, kind)
			for _, w := range []harness.Workload{workload.Stress(7, 300), workload.KernelBuild()} {
				s := harness.Spec{Workload: w, Config: cfg, Scale: workload.Small()}
				fast := runWith(t, s, false, true)
				slow := runWith(t, s, false, false)
				if !reflect.DeepEqual(fast, slow) {
					t.Errorf("%s: backend %v diverges between bulk and reference paths\nfast: %+v\nslow: %+v",
						s.Label(), kind, fast, slow)
				}
			}
		})
	}
}

// hybridUpdateRun drives the HYBRID backend into update mode through the
// kernel, which no benchmark does (HYB aligns shared pages as F does):
// one object mapped at two pages one cache colour apart, as the §2.5
// microbenchmark's unaligned setup does; 12 full-page writes alternating
// between them, so the mode switch lands in the first word of a page
// run; a full-page write and read through each alias; then a fork whose
// child and parent write their copy-on-write heaps. It returns the
// machine and pmap statistics and the cycle count.
func hybridUpdateRun(t *testing.T, cpus int, fast bool) (machine.Stats, pmap.Stats, uint64) {
	t.Helper()
	kc := kernel.DefaultConfig(policy.Hybrid())
	kc.Machine.CPUs = cpus
	kc.Machine.WithOracle = false
	kc.Machine.DisableFastPaths = !fast
	k, err := kernel.New(kc)
	if err != nil {
		t.Fatal(err)
	}
	p, err := k.Spawn(nil, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	geom := k.Geometry()
	obj := k.VM.NewObject()
	var alias [2]arch.VPN
	for i, vpn := range []arch.VPN{0x40000, 0x40000 + arch.VPN(geom.DCachePages()) + 1} {
		r, err := k.VM.MapObject(p.Space, obj, 0, 1, vpn, arch.NoCachePage, arch.ProtReadWrite, false, vm.KindShared)
		if err != nil {
			t.Fatal(err)
		}
		alias[i] = r.Start
	}
	words := int(geom.WordsPerPage())
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(k.TouchHeap(p, 0, words))
	for i := range 12 {
		must(k.WritePage(p, alias[i%2], words))
	}
	for _, vpn := range alias {
		must(k.WritePage(p, vpn, words))
		must(k.ReadPage(p, vpn, words))
	}
	child, err := k.Fork(p)
	must(err)
	must(k.TouchHeap(child, 0, words))
	must(k.TouchHeap(p, 0, words))
	must(k.TouchHeap(p, 1, words))
	return k.M.Stats(), k.PM.Stats(), k.M.Clock.Cycles()
}

// TestHybridUpdateModeFastPathIdentity: a HYBRID page switched to update
// mode inside a page run leaves the fast and reference paths in the
// same state, on one CPU and on two.
func TestHybridUpdateModeFastPathIdentity(t *testing.T) {
	for _, cpus := range []int{1, 2} {
		fm, fp, fc := hybridUpdateRun(t, cpus, true)
		rm, rp, rc := hybridUpdateRun(t, cpus, false)
		if fp.HybridUpdateSwitches == 0 {
			t.Fatalf("%d CPU(s): the run never reached update mode", cpus)
		}
		t.Logf("%d CPU(s): %d update switches, %d reverts, %d cycles", cpus, fp.HybridUpdateSwitches, fp.HybridReverts, fc)
		if fm != rm || fp != rp || fc != rc {
			t.Errorf("%d CPU(s): fast and reference paths diverge\nmachine %+v\n     vs %+v\npmap    %+v\n     vs %+v\ncycles  %d vs %d",
				cpus, fm, rm, fp, rp, fc, rc)
		}
	}
}
