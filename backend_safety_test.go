// Backend fast-path safety: every consistency backend runs the bulk
// fast paths, so each must produce the same observations on them as on
// the word-at-a-time reference pipeline. A new backend kind added
// without a reachable configuration, or whose runs diverge, fails here.
package vcache

import (
	"reflect"
	"testing"

	"vcache/internal/arch"
	"vcache/internal/harness"
	"vcache/internal/kernel"
	"vcache/internal/machine"
	"vcache/internal/pmap"
	"vcache/internal/policy"
	"vcache/internal/vm"
	"vcache/internal/workload"
)

// backendConfig finds the policy configuration that runs under kind.
func backendConfig(t *testing.T, kind policy.Backend) policy.Config {
	t.Helper()
	for _, cfg := range policy.All() {
		if cfg.Features.Backend == kind {
			return cfg
		}
	}
	t.Fatalf("no policy configuration runs backend %v — every backend must be reachable from a label", kind)
	return policy.Config{}
}

// TestEveryBackendFastPathSafe: fast vs reference pipeline, with the
// oracle off and on, the Results of every backend must be deeply equal
// — every cycle, every counter, every oracle check.
func TestEveryBackendFastPathSafe(t *testing.T) {
	for kind := range policy.NumBackends {
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			cfg := backendConfig(t, kind)
			for _, w := range []harness.Workload{workload.Stress(7, 300), workload.KernelBuild()} {
				for _, oracle := range []bool{false, true} {
					s := harness.Spec{Workload: w, Config: cfg, Scale: workload.Small()}
					fast := runWith(t, s, oracle, true)
					slow := runWith(t, s, oracle, false)
					if !reflect.DeepEqual(fast, slow) {
						t.Errorf("%s oracle=%t: backend %v diverges between bulk and reference paths\nfast: %+v\nslow: %+v",
							s.Label(), oracle, kind, fast, slow)
					}
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
// child and parent write their copy-on-write heaps. With oracle set the
// oracle checks the run. It returns the machine and pmap statistics,
// the cycle count and the oracle's check count (0 without the oracle).
func hybridUpdateRun(t *testing.T, cpus int, oracle, fast bool) (machine.Stats, pmap.Stats, uint64, uint64) {
	t.Helper()
	kc := kernel.DefaultConfig(policy.Hybrid())
	kc.Machine.CPUs = cpus
	kc.Machine.WithOracle = oracle
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
	if v := k.M.Oracle.Violations(); len(v) != 0 {
		t.Errorf("%d CPU(s), oracle=%t, fast=%t: %d stale transfers, first %v", cpus, oracle, fast, len(v), v[0])
	}
	return k.M.Stats(), k.PM.Stats(), k.M.Clock.Cycles(), k.M.Oracle.Checks()
}

// TestHybridUpdateModeFastPathIdentity: a HYBRID page switched to update
// mode inside a page run leaves the fast and reference paths in the
// same state, on one CPU and on two, with the oracle off and on (oracle
// checks included and no stale transfer on either path).
func TestHybridUpdateModeFastPathIdentity(t *testing.T) {
	for _, cpus := range []int{1, 2} {
		for _, oracle := range []bool{false, true} {
			fm, fp, fc, fo := hybridUpdateRun(t, cpus, oracle, true)
			rm, rp, rc, ro := hybridUpdateRun(t, cpus, oracle, false)
			if fp.HybridUpdateSwitches == 0 {
				t.Fatalf("%d CPU(s), oracle=%t: the run never reached update mode", cpus, oracle)
			}
			if oracle && fo == 0 {
				t.Fatalf("%d CPU(s): the oracle checked nothing", cpus)
			}
			t.Logf("%d CPU(s), oracle=%t: %d update switches, %d reverts, %d cycles, %d oracle checks",
				cpus, oracle, fp.HybridUpdateSwitches, fp.HybridReverts, fc, fo)
			if fm != rm || fp != rp || fc != rc || fo != ro {
				t.Errorf("%d CPU(s), oracle=%t: fast and reference paths diverge\nmachine %+v\n     vs %+v\npmap    %+v\n     vs %+v\ncycles  %d vs %d\nchecks  %d vs %d",
					cpus, oracle, fm, rm, fp, rp, fc, rc, fo, ro)
			}
		}
	}
}
