package core

import (
	"fmt"
	"testing"

	"vcache/internal/arch"
)

// mockWorld records the hardware operations and protection changes the
// controller issues.
type mockWorld struct {
	flushes  []arch.CachePage
	purges   []arch.CachePage
	mappings []Mapping
	prots    map[Mapping]arch.Prot
	cleared  []arch.CachePage
}

func newMockWorld(mappings ...Mapping) *mockWorld {
	return &mockWorld{mappings: mappings, prots: make(map[Mapping]arch.Prot)}
}

func (w *mockWorld) FlushCachePage(c arch.CachePage, f arch.PFN) { w.flushes = append(w.flushes, c) }
func (w *mockWorld) PurgeCachePage(c arch.CachePage, f arch.PFN) { w.purges = append(w.purges, c) }
func (w *mockWorld) Mappings(f arch.PFN) []Mapping               { return w.mappings }
func (w *mockWorld) SetProtection(m Mapping, p arch.Prot)        { w.prots[m] = p }
func (w *mockWorld) ClearModified(f arch.PFN, c arch.CachePage)  { w.cleared = append(w.cleared, c) }

func mapping(vpn arch.VPN, c arch.CachePage) Mapping {
	return Mapping{Space: 1, VPN: vpn, CachePage: c}
}

// needData is the normal access option set.
var needData = Options{NeedData: true}

func TestCacheControlFirstRead(t *testing.T) {
	w := newMockWorld(mapping(0x10, 3))
	ctl := NewController(w, w)
	var st PageState
	ctl.CacheControl(5, &st, 3, CPURead, needData)
	if st.StateOf(3) != Present {
		t.Errorf("state after first read = %v", st.StateOf(3))
	}
	if len(w.flushes)+len(w.purges) != 0 {
		t.Error("first read of a fresh page should need no cache ops")
	}
	if w.prots[mapping(0x10, 3)] != arch.ProtRead {
		t.Errorf("read access granted %v", w.prots[mapping(0x10, 3)])
	}
}

func TestCacheControlWriteMakesDirtyAndStalesOthers(t *testing.T) {
	m1, m2 := mapping(0x10, 3), mapping(0x11, 4)
	w := newMockWorld(m1, m2)
	ctl := NewController(w, w)
	var st PageState
	// Both aliases read first.
	ctl.CacheControl(5, &st, 3, CPURead, needData)
	ctl.CacheControl(5, &st, 4, CPURead, needData)
	if st.StateOf(3) != Present || st.StateOf(4) != Present {
		t.Fatal("both cache pages should be present after reads")
	}
	// Write through the first: the unaligned copy becomes stale and
	// loses access; the target becomes dirty and read-write.
	ctl.CacheControl(5, &st, 3, CPUWrite, needData)
	if st.StateOf(3) != Dirty {
		t.Errorf("target state = %v", st.StateOf(3))
	}
	if st.StateOf(4) != Stale {
		t.Errorf("unaligned alias state = %v", st.StateOf(4))
	}
	if w.prots[m1] != arch.ProtReadWrite {
		t.Errorf("writer prot = %v", w.prots[m1])
	}
	if w.prots[m2] != arch.ProtNone {
		t.Errorf("stale alias prot = %v", w.prots[m2])
	}
	if err := st.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestCacheControlReadOfStalePurges(t *testing.T) {
	m1, m2 := mapping(0x10, 3), mapping(0x11, 4)
	w := newMockWorld(m1, m2)
	ctl := NewController(w, w)
	var st PageState
	ctl.CacheControl(5, &st, 4, CPURead, needData)
	ctl.CacheControl(5, &st, 3, CPUWrite, needData) // 4 goes stale
	w.flushes, w.purges = nil, nil

	// Reading the stale alias: flush the dirty page (it is not the
	// target), purge the stale target, then both present/readable.
	ctl.CacheControl(5, &st, 4, CPURead, needData)
	if len(w.flushes) != 1 || w.flushes[0] != 3 {
		t.Errorf("flushes = %v, want [3]", w.flushes)
	}
	if len(w.purges) != 1 || w.purges[0] != 4 {
		t.Errorf("purges = %v, want [4]", w.purges)
	}
	if st.StateOf(3) != Present || st.StateOf(4) != Present {
		t.Errorf("states: 3=%v 4=%v", st.StateOf(3), st.StateOf(4))
	}
	if st.CacheDirty {
		t.Error("cache_dirty survived the flush")
	}
	// Clearing cache_dirty must reset the modified bookkeeping so the
	// next store re-traps.
	if len(w.cleared) != 1 || w.cleared[0] != 3 {
		t.Errorf("ClearModified calls = %v, want [3]", w.cleared)
	}
	if w.prots[m1] != arch.ProtRead || w.prots[m2] != arch.ProtRead {
		t.Error("both aliases should be read-only after the read")
	}
}

func TestCacheControlWriteToDirtyTargetIsFree(t *testing.T) {
	m1 := mapping(0x10, 3)
	w := newMockWorld(m1)
	ctl := NewController(w, w)
	var st PageState
	ctl.CacheControl(5, &st, 3, CPUWrite, needData)
	w.flushes, w.purges = nil, nil
	ctl.CacheControl(5, &st, 3, CPUWrite, needData)
	if len(w.flushes)+len(w.purges) != 0 {
		t.Error("re-writing the dirty target should need no cache ops")
	}
	if st.StateOf(3) != Dirty {
		t.Errorf("state = %v", st.StateOf(3))
	}
}

func TestCacheControlWillOverwriteSkipsPurge(t *testing.T) {
	m1 := mapping(0x10, 3)
	w := newMockWorld(m1)
	ctl := NewController(w, w)
	var st PageState
	st.Stale.Set(3) // stale data from a previous life of the frame
	ctl.CacheControl(5, &st, 3, CPUWrite, Options{NeedData: true, WillOverwrite: true})
	if len(w.purges) != 0 {
		t.Errorf("purges = %v, want none (will_overwrite)", w.purges)
	}
	if st.StateOf(3) != Dirty {
		t.Errorf("state = %v, stale bit must clear anyway", st.StateOf(3))
	}
	if ctl.Stats().PurgesAvoided != 1 {
		t.Errorf("PurgesAvoided = %d", ctl.Stats().PurgesAvoided)
	}
}

func TestCacheControlNeedDataFalsePurgesInsteadOfFlush(t *testing.T) {
	w := newMockWorld()
	ctl := NewController(w, w)
	var st PageState
	st.Mapped.Set(2)
	st.CacheDirty = true // dead dirty data from a recycled frame
	ctl.CacheControl(5, &st, 6, CPUWrite, Options{NeedData: false})
	if len(w.flushes) != 0 {
		t.Errorf("flushes = %v, want none (need_data false)", w.flushes)
	}
	if len(w.purges) != 1 || w.purges[0] != 2 {
		t.Errorf("purges = %v, want [2]", w.purges)
	}
	if ctl.Stats().FlushesAvoided != 1 {
		t.Errorf("FlushesAvoided = %d", ctl.Stats().FlushesAvoided)
	}
}

func TestCacheControlDMAWrite(t *testing.T) {
	m1, m2 := mapping(0x10, 3), mapping(0x50, 3) // aligned pair
	w := newMockWorld(m1, m2)
	ctl := NewController(w, w)
	var st PageState
	ctl.CacheControl(5, &st, 3, CPUWrite, needData)
	w.purges = nil

	ctl.CacheControl(5, &st, arch.NoCachePage, DMAWrite, Options{NeedData: false})
	// The dirty page is purged, not flushed (the DMA data overwrites
	// memory anyway), and every mapping loses access.
	if len(w.purges) != 1 || w.purges[0] != 3 {
		t.Errorf("purges = %v, want [3]", w.purges)
	}
	if len(w.flushes) != 0 {
		t.Errorf("flushes = %v, want none", w.flushes)
	}
	if st.CacheDirty {
		t.Error("cache_dirty survived DMA-write")
	}
	if st.StateOf(3) != Stale {
		t.Errorf("cache page state = %v, want stale", st.StateOf(3))
	}
	for _, m := range []Mapping{m1, m2} {
		if w.prots[m] != arch.ProtNone {
			t.Errorf("mapping %v prot = %v, want none", m, w.prots[m])
		}
	}
	if ctl.Stats().DMAWritePurges != 1 {
		t.Errorf("DMAWritePurges = %d", ctl.Stats().DMAWritePurges)
	}
}

func TestCacheControlDMARead(t *testing.T) {
	m1 := mapping(0x10, 3)
	w := newMockWorld(m1)
	ctl := NewController(w, w)
	var st PageState
	ctl.CacheControl(5, &st, 3, CPUWrite, needData)
	w.flushes = nil

	ctl.CacheControl(5, &st, arch.NoCachePage, DMARead, needData)
	if len(w.flushes) != 1 || w.flushes[0] != 3 {
		t.Errorf("flushes = %v, want [3]", w.flushes)
	}
	if st.CacheDirty {
		t.Error("cache_dirty survived DMA-read flush")
	}
	// The data remains present and readable; DMA-read does not break
	// mappings.
	if st.StateOf(3) != Present {
		t.Errorf("state = %v, want present", st.StateOf(3))
	}
	if ctl.Stats().DMAReadFlushes != 1 {
		t.Errorf("DMAReadFlushes = %d", ctl.Stats().DMAReadFlushes)
	}
}

func TestCacheControlAlignedAliasesShareFreely(t *testing.T) {
	m1, m2 := mapping(0x10, 3), mapping(0x50, 3)
	w := newMockWorld(m1, m2)
	ctl := NewController(w, w)
	var st PageState
	ctl.CacheControl(5, &st, 3, CPUWrite, needData)
	if w.prots[m1] != arch.ProtReadWrite || w.prots[m2] != arch.ProtReadWrite {
		t.Error("aligned aliases should both be writable")
	}
	if len(w.flushes)+len(w.purges) != 0 {
		t.Error("aligned aliases require no cache operations")
	}
}

func TestNoteModifiedFastPath(t *testing.T) {
	w := newMockWorld()
	ctl := NewController(w, w)
	var st PageState
	st.Mapped.Set(4)
	if !ctl.NoteModified(&st, 4) {
		t.Fatal("fast path rejected the single-mapped case")
	}
	if !st.CacheDirty {
		t.Error("cache_dirty not set")
	}
	// Two mapped pages: the fast path must refuse.
	var st2 PageState
	st2.Mapped.Set(4)
	st2.Mapped.Set(5)
	if ctl.NoteModified(&st2, 4) {
		t.Error("fast path accepted a multi-mapped page")
	}
	// Wrong cache page: refuse.
	var st3 PageState
	st3.Mapped.Set(4)
	if ctl.NoteModified(&st3, 5) {
		t.Error("fast path accepted a mismatched cache page")
	}
}

// TestCacheControlPreservesInvariants drives random operation sequences
// through the controller and checks the Table 3 structural invariants
// after every step.
func TestCacheControlPreservesInvariants(t *testing.T) {
	colors := []arch.CachePage{0, 1, 2, 3}
	var ms []Mapping
	for i, c := range colors {
		ms = append(ms, mapping(arch.VPN(0x100+i), c))
	}
	w := newMockWorld(ms...)
	ctl := NewController(w, w)
	var st PageState
	rng := uint64(2024)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int(rng>>33) % n
	}
	for i := 0; i < 20000; i++ {
		var op Operation
		target := arch.NoCachePage
		switch next(4) {
		case 0:
			op, target = CPURead, colors[next(len(colors))]
		case 1:
			op, target = CPUWrite, colors[next(len(colors))]
		case 2:
			op = DMARead
		case 3:
			op = DMAWrite
		}
		opts := Options{NeedData: next(2) == 0, WillOverwrite: next(4) == 0}
		if op == DMARead {
			opts.NeedData = true
		}
		ctl.CacheControl(7, &st, target, op, opts)
		if err := st.CheckInvariants(); err != nil {
			t.Fatalf("step %d (%v on %d): %v\nstate: %v", i, op, target, err, st)
		}
	}
	if ctl.Stats().Invocations != 20000 {
		t.Errorf("Invocations = %d", ctl.Stats().Invocations)
	}
}

func TestMappingString(t *testing.T) {
	m := mapping(0x42, 7)
	if m.String() == "" {
		t.Error("mapping should format")
	}
	if fmt.Sprint(m) == "" {
		t.Error("fmt should format mapping")
	}
}
