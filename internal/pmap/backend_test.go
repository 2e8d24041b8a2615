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
// and attributing the cleanup cycles to the rlt-evict category.
func TestRLTCapacityEviction(t *testing.T) {
	r := newRig(t, policy.RLT().Features)
	rltEvictionScenario(t, r)
	s := r.p.Stats()
	if s.RLTEvictions == 0 {
		t.Fatalf("%d synonym frames in a %d-entry RLT caused no evictions", rltCapacity+8, rltCapacity)
	}
	if got := len(r.p.rlt); got > rltCapacity {
		t.Fatalf("RLT holds %d entries, capacity %d", got, rltCapacity)
	}
	if r.m.Clock.CyclesIn(sim.CatRLTEvict) == 0 {
		t.Error("evictions attributed no cycles to rlt-evict")
	}
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

// rltLedger is the exact cycle record of a run: every clock category,
// the total, and the pmap's metered flush/purge cycles.
type rltLedger struct {
	ByCat                                    [sim.CatRLTEvict + 1]uint64
	Total                                    uint64
	DFlushCycles, DPurgeCycles, IPurgeCycles uint64
	Assists, Evictions                       uint64
}

func ledgerOf(r *rig) rltLedger {
	var l rltLedger
	for c := sim.CatAccess; c <= sim.CatRLTEvict; c++ {
		l.ByCat[c] = r.m.Clock.CyclesIn(c)
	}
	s := r.p.Stats()
	l.Total = r.m.Clock.Cycles()
	l.DFlushCycles, l.DPurgeCycles, l.IPurgeCycles = s.DFlushCycles, s.DPurgeCycles, s.IPurgeCycles
	l.Assists, l.Evictions = s.RLTAssists, s.RLTEvictions
	return l
}

// rltEvictionScenario enters more simultaneous synonym frames than the
// RLT holds, dirtying each through one alias and, for every other
// frame, reading it back through the other, so the table evicts both
// dirty frames (flushes) and frames cached at two colors (purges).
func rltEvictionScenario(t *testing.T, r *rig) {
	t.Helper()
	for i := 0; i < rltCapacity+8; i++ {
		f, err := r.p.AllocFrame(arch.NoCachePage)
		if err != nil {
			t.Fatalf("out of frames at %d: %v", i, err)
		}
		v1 := arch.VPN(0x100 + 2*i)
		v2 := arch.VPN(0x1000 + 2*i + 1) // different color: a real synonym
		r.p.Enter(1, v1, f, arch.ProtReadWrite, KindUser)
		r.p.Enter(1, v2, f, arch.ProtReadWrite, KindUser)
		r.write(t, 1, v1, 0, uint64(i))
		if i%2 == 1 {
			if got := r.read(t, 1, v2, 0); got != uint64(i) {
				t.Fatalf("frame %d read %d through its synonym, want %d", i, got, i)
			}
		}
	}
	r.checkOracle(t)
}

// TestRLTExactCycles pins the exact per-category cycles, total, and
// metered flush/purge cycles of an assist run and of capacity-eviction
// runs on one and two CPUs, with the software scheme's run beside them:
// which category an operation's cost lands in, and how much, is part of
// every table the RLT backend prints.
func TestRLTExactCycles(t *testing.T) {
	software := newRig(t, policy.ConfigF().Features)
	aliasPingPong(t, software, 40)
	assist := newRig(t, policy.RLT().Features)
	aliasPingPong(t, assist, 40)
	evict := newRig(t, policy.RLT().Features)
	rltEvictionScenario(t, evict)
	evict2 := newRigCPUs(t, policy.RLT().Features, 2)
	rltEvictionScenario(t, evict2)
	for _, tc := range []struct {
		name      string
		got, want rltLedger
	}{
		{"software", ledgerOf(software), rltLedger{
			ByCat: [...]uint64{3372, 5360, 4992, 9020, 0, 0, 0, 0}, Total: 22744,
			DFlushCycles: 5360, DPurgeCycles: 4992}},
		{"assist", ledgerOf(assist), rltLedger{
			ByCat: [...]uint64{3372, 0, 0, 9020, 0, 0, 474, 0}, Total: 12866,
			Assists: 79}},
		{"evict", ledgerOf(evict), rltLedger{
			ByCat: [...]uint64{9148, 0, 0, 23760, 0, 0, 216, 1536}, Total: 34660,
			DFlushCycles: 512, DPurgeCycles: 1024, Assists: 36, Evictions: 8}},
		{"evict-2cpu", ledgerOf(evict2), rltLedger{
			ByCat: [...]uint64{9148, 0, 0, 23760, 0, 0, 216, 3072}, Total: 36196,
			DFlushCycles: 1024, DPurgeCycles: 2048, Assists: 36, Evictions: 8}},
	} {
		if tc.got != tc.want {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.name, tc.got, tc.want)
		}
	}
}
