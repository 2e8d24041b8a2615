package pmap

import (
	"testing"

	"vcache/internal/arch"
	"vcache/internal/policy"
	"vcache/internal/sim"
)

// aliasPingPong alternates writes between two unaligned aliases of one
// frame — every write is a consistency fault whose CacheControl run
// flushes or purges the sibling color, the workload the peer backend
// exists to improve.
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

// TestRLTDMAReadIsASoftwareFlush: a device reads memory, not the cache,
// so an RLT cannot re-bind its way out of a DMA-read. Preparing a DMA
// read of a dirty frame with live synonyms is a metered software flush
// charged to the flush category, never an RLT assist.
func TestRLTDMAReadIsASoftwareFlush(t *testing.T) {
	r := newRig(t, policy.RLT().Features)
	aliasPingPong(t, r, 6)
	r.write(t, 1, 0x10, 0, 77) // dirty the frame again through one alias
	f, _ := r.p.Translate(1, 0x10)
	if !r.p.phys[f].inRLT || !r.p.PageState(f).CacheDirty {
		t.Fatalf("frame in the RLT %t, dirty %t: want a dirty synonym frame", r.p.phys[f].inRLT, r.p.PageState(f).CacheDirty)
	}
	before, flushCycles, rltCycles := r.p.Stats(), r.m.Clock.CyclesIn(sim.CatFlush), r.m.Clock.CyclesIn(sim.CatRLT)
	r.p.PrepareDMARead(f)
	after := r.p.Stats()
	if after.DFlushPages != before.DFlushPages+1 || after.DMAReadFlushes != before.DMAReadFlushes+1 {
		t.Errorf("DMA-read prep: %d page flushes, %d DMA-read flushes, want 1 and 1",
			after.DFlushPages-before.DFlushPages, after.DMAReadFlushes-before.DMAReadFlushes)
	}
	if after.RLTAssists != before.RLTAssists || r.m.Clock.CyclesIn(sim.CatRLT) != rltCycles {
		t.Errorf("DMA-read prep counted %d RLT assists: a device-driven flush is never assisted",
			after.RLTAssists-before.RLTAssists)
	}
	if r.m.Clock.CyclesIn(sim.CatFlush) == flushCycles {
		t.Error("DMA-read prep charged no flush cycles")
	}
	if out := r.m.DMARead(r.m.Geom.FrameBase(f), 1); out[0] != 77 {
		t.Fatalf("device read %d, want 77", out[0])
	}
	r.checkOracle(t)
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

// TestBackendStateSurvivesClone: a cloned pmap carries its own backend
// state. RLT contents carry over and are not shared with the parent.
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
}
