package pmap

import (
	"testing"

	"vcache/internal/arch"
	"vcache/internal/policy"
	"vcache/internal/sim"
)

// aliasPingPong alternates writes between two unaligned aliases of one
// frame — every write is a consistency fault whose CacheControl run
// flushes or purges the sibling color, the workload the peer backends
// exist to improve.
func aliasPingPong(t *testing.T, r *rig, writes int) {
	t.Helper()
	f, _ := r.p.AllocFrame(arch.NoCachePage)
	r.p.Enter(1, 0x10, f, arch.ProtReadWrite, KindUser)
	r.p.Enter(1, 0x11, f, arch.ProtReadWrite, KindUser)
	for i := 0; i < writes; i++ {
		r.write(t, 1, arch.VPN(0x10+i&1), 0, uint64(i))
	}
	if got := r.read(t, 1, 0x10, 0); got != uint64(writes-1) {
		t.Fatalf("read through alias 1 = %d, want %d", got, writes-1)
	}
	if got := r.read(t, 1, 0x11, 0); got != uint64(writes-1) {
		t.Fatalf("read through alias 2 = %d, want %d", got, writes-1)
	}
	r.checkOracle(t)
}

// TestRLTAssistsUnalignedAliases: under the RLT backend the unaligned
// alias ping-pong resolves every CPU-op flush/purge through the
// reverse-lookup table — no metered page flushes or purges, assist
// cycles charged to the rlt category instead, and fewer total cycles
// than the same run under configuration F. Functional correctness
// (read-back values, oracle) is unchanged.
func TestRLTAssistsUnalignedAliases(t *testing.T) {
	base := newRig(t, policy.ConfigF().Features)
	aliasPingPong(t, base, 40)
	baseCycles := base.m.Clock.Cycles()

	r := newRig(t, policy.RLT().Features)
	aliasPingPong(t, r, 40)
	s := r.p.Stats()
	if s.RLTAssists == 0 {
		t.Fatal("no RLT assists on the unaligned alias ping-pong")
	}
	if s.RLTInserts == 0 {
		t.Error("no RLT inserts recorded")
	}
	if s.DFlushPages != 0 || s.DPurgePages != 0 {
		t.Errorf("metered flushes/purges under RLT: %d/%d (assists should replace them)",
			s.DFlushPages, s.DPurgePages)
	}
	if got := r.m.Clock.CyclesIn(sim.CatRLT); got == 0 {
		t.Error("no cycles attributed to the rlt category")
	}
	if got := r.m.Clock.Cycles(); got >= baseCycles {
		t.Errorf("RLT run cost %d cycles, configuration F cost %d — the assist saved nothing", got, baseCycles)
	}
}

// TestRLTDropOnSynonymCollapse: removing one of the two aliases drops
// the frame from the RLT without cleaning (there is nothing a lone
// mapping needs the table for), so later maintenance runs un-assisted.
func TestRLTDropOnSynonymCollapse(t *testing.T) {
	r := newRig(t, policy.RLT().Features)
	aliasPingPong(t, r, 10)
	before := r.p.Stats()
	if before.RLTEvictions != 0 {
		t.Fatalf("synonym working set of 1 frame evicted from a %d-entry table", rltCapacity)
	}
	r.p.Remove(1, 0x11)
	if got := len(r.p.rlt); got != 0 {
		t.Fatalf("RLT still holds %d entries after synonym collapse", got)
	}
	after := r.p.Stats()
	if after.RLTEvictions != before.RLTEvictions {
		t.Error("synonym collapse charged an eviction (must drop without cleaning)")
	}
	r.checkOracle(t)
}

// TestRLTCapacityEviction: more simultaneous synonym frames than the
// table holds forces FIFO evictions, each cleaning the victim frame
// and re-attributing the cleanup cycles to the rlt-evict category.
func TestRLTCapacityEviction(t *testing.T) {
	r := newRig(t, policy.RLT().Features)
	for i := 0; i < rltCapacity+8; i++ {
		f, err := r.p.AllocFrame(arch.NoCachePage)
		if err != nil {
			t.Fatalf("out of frames at %d: %v", i, err)
		}
		v1 := arch.VPN(0x100 + 2*i)
		v2 := arch.VPN(0x1000 + 2*i + 1) // different color: a real synonym
		r.p.Enter(1, v1, f, arch.ProtReadWrite, KindUser)
		r.p.Enter(1, v2, f, arch.ProtReadWrite, KindUser)
		// Dirty the frame through one alias so an eviction has real
		// write-back work to do.
		r.write(t, 1, v1, 0, uint64(i))
	}
	s := r.p.Stats()
	if s.RLTEvictions == 0 {
		t.Fatalf("%d synonym frames in a %d-entry RLT caused no evictions", rltCapacity+8, rltCapacity)
	}
	if got := len(r.p.rlt); got > rltCapacity {
		t.Fatalf("RLT holds %d entries, capacity %d", got, rltCapacity)
	}
	if r.m.Clock.CyclesIn(sim.CatRLTEvict) == 0 {
		t.Error("evictions re-attributed no cycles to rlt-evict")
	}
	r.checkOracle(t)
}

// TestHybridWriteRunSwitchAndRevert: the write-run heuristic must
// switch the ping-ponged page to update (uncached) mode after the
// threshold, making subsequent alias writes fault-free; collapsing the
// synonym must revert the page to cached invalidate mode.
func TestHybridWriteRunSwitchAndRevert(t *testing.T) {
	r := newRig(t, policy.Hybrid().Features)
	aliasPingPong(t, r, 40)
	s := r.p.Stats()
	if s.HybridUpdateSwitches == 0 {
		t.Fatal("write-run heuristic never switched to update mode")
	}
	if s.DFlushPages+s.DPurgePages >= 40 {
		t.Errorf("%d flushes+purges under hybrid — the switch did not stop the maintenance storm",
			s.DFlushPages+s.DPurgePages)
	}
	f, ok := r.p.Translate(1, 0x10)
	if !ok {
		t.Fatal("alias translation lost")
	}
	if !r.p.phys[f].uncached {
		t.Fatal("switched page is not in update (uncached) mode")
	}

	// Synonym collapse: the lone survivor reverts to cached mode.
	r.p.Remove(1, 0x11)
	if got := r.p.Stats().HybridReverts; got == 0 {
		t.Fatal("synonym collapse did not revert the page to cached mode")
	}
	if r.p.phys[f].uncached {
		t.Fatal("page still uncached after revert")
	}
	// The survivor still reads the last written value, cached again.
	if got := r.read(t, 1, 0x10, 0); got != 39 {
		t.Fatalf("post-revert read = %d, want 39", got)
	}
	r.checkOracle(t)
}

// TestBackendStateSurvivesClone: a cloned pmap carries its own backend
// state. RLT contents carry over and are not shared with the parent; a
// hybrid page cloned in the middle of a write run reaches update mode at
// the threshold on the fork only.
func TestBackendStateSurvivesClone(t *testing.T) {
	t.Run("RLT", func(t *testing.T) {
		r := newRig(t, policy.RLT().Features)
		aliasPingPong(t, r, 6)
		if len(r.p.rlt) == 0 {
			t.Fatal("parent RLT empty before clone")
		}
		p2 := r.p.Clone(r.m.Clone())
		if got, want := len(p2.rlt), len(r.p.rlt); got != want {
			t.Fatalf("cloned RLT has %d entries, parent %d", got, want)
		}
		// Mutating the clone's RLT must not touch the parent.
		p2.rltDrop(p2.rlt[0])
		if len(r.p.rlt) == len(p2.rlt) {
			t.Fatal("clone and parent share RLT state")
		}
	})
	t.Run("HYB", func(t *testing.T) {
		r := newRig(t, policy.Hybrid().Features)
		f, _ := r.p.AllocFrame(arch.NoCachePage)
		r.p.Enter(1, 0x10, f, arch.ProtReadWrite, KindUser)
		r.p.Enter(1, 0x11, f, arch.ProtReadWrite, KindUser)
		// Every write after the first displaces the other alias's dirty
		// data: one displacement short of the threshold.
		for i := 0; i < hybridWriteRunThreshold; i++ {
			r.write(t, 1, arch.VPN(0x10+i&1), 0, uint64(i))
		}
		if got := r.p.phys[f].hybridAlt; got != hybridWriteRunThreshold-1 {
			t.Fatalf("write run at %d displacements before the clone, want %d", got, hybridWriteRunThreshold-1)
		}
		m2 := r.m.Clone()
		fork := &rig{m: m2, p: r.p.Clone(m2), al: r.al}
		m2.SetFaultHandler(fork)
		fork.write(t, 1, arch.VPN(0x10+hybridWriteRunThreshold&1), 0, 99)
		if !fork.p.phys[f].uncached || fork.p.Stats().HybridUpdateSwitches != 1 {
			t.Fatalf("fork: uncached %t after %d switches, want update mode after 1",
				fork.p.phys[f].uncached, fork.p.Stats().HybridUpdateSwitches)
		}
		if pp := r.p.phys[f]; pp.uncached || pp.hybridAlt != hybridWriteRunThreshold-1 || r.p.Stats().HybridUpdateSwitches != 0 {
			t.Fatalf("the fork's write run reached the parent: uncached %t, %d displacements, %d switches",
				pp.uncached, pp.hybridAlt, r.p.Stats().HybridUpdateSwitches)
		}
		if got := fork.read(t, 1, 0x10, 0); got != 99 {
			t.Fatalf("fork reads %d through the other alias, want 99", got)
		}
		fork.checkOracle(t)
		r.checkOracle(t)
	})
}
