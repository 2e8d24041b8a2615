package tlb

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"testing"

	"vcache/internal/arch"
	"vcache/internal/sim"
)

// refTLB is the reference model for the index: the same fully
// associative LRU TLB, found through a plain Go map and with no
// last-translation cache. Slot placement, LRU stamps and statistics must
// match the real TLB exactly; only the lookup mechanism differs.
type refKey struct {
	space arch.SpaceID
	vpn   arch.VPN
}

type refTLB struct {
	slots []slot
	index map[refKey]int
	tick  uint64
	stats Stats
}

func newRef(entries int) *refTLB {
	return &refTLB{slots: make([]slot, entries), index: make(map[refKey]int)}
}

func (r *refTLB) clone() *refTLB {
	r2 := *r
	r2.slots = append([]slot(nil), r.slots...)
	r2.index = make(map[refKey]int, len(r.index))
	for k, i := range r.index {
		r2.index[k] = i
	}
	return &r2
}

func (r *refTLB) lookup(space arch.SpaceID, vpn arch.VPN, w Walker) (Entry, bool) {
	r.tick++
	if i, ok := r.index[refKey{space, vpn}]; ok {
		r.stats.Hits++
		r.slots[i].lru = r.tick
		return r.slots[i].entry, true
	}
	r.stats.Misses++
	e, ok := w.Walk(space, vpn)
	if !ok {
		return Entry{}, false
	}
	victim := 0
	for i := range r.slots {
		if !r.slots[i].valid {
			victim = i
			break
		}
		if r.slots[i].lru < r.slots[victim].lru {
			victim = i
		}
	}
	if old := r.slots[victim]; old.valid {
		r.stats.Evictions++
		delete(r.index, refKey{old.space, old.vpn})
	}
	r.slots[victim] = slot{space: space, vpn: vpn, entry: e, valid: true, lru: r.tick}
	r.index[refKey{space, vpn}] = victim
	return e, true
}

func (r *refTLB) peek(space arch.SpaceID, vpn arch.VPN) (Entry, bool) {
	if i, ok := r.index[refKey{space, vpn}]; ok {
		return r.slots[i].entry, true
	}
	return Entry{}, false
}

func (r *refTLB) touchRepeat(space arch.SpaceID, vpn arch.VPN, n uint64) bool {
	if n == 0 {
		return true
	}
	i, ok := r.index[refKey{space, vpn}]
	if !ok {
		return false
	}
	r.tick += n
	r.stats.Hits += n
	r.slots[i].lru = r.tick
	return true
}

func (r *refTLB) invalidatePage(space arch.SpaceID, vpn arch.VPN) {
	if i, ok := r.index[refKey{space, vpn}]; ok {
		r.stats.Shootdowns++
		r.slots[i].valid = false
		delete(r.index, refKey{space, vpn})
	}
}

func (r *refTLB) invalidateSpace(space arch.SpaceID) {
	r.stats.Shootdowns++
	for i := range r.slots {
		if r.slots[i].valid && r.slots[i].space == space {
			r.slots[i].valid = false
			delete(r.index, refKey{space, r.slots[i].vpn})
		}
	}
}

func (r *refTLB) invalidateAll() {
	r.stats.Shootdowns++
	for i := range r.slots {
		r.slots[i].valid = false
	}
	clear(r.index)
}

// versionWalker maps most pages, leaves every seventh unmapped, and
// bumps a page's frame each time it is invalidated, so a stale entry
// served after an invalidation shows up as a wrong frame.
type versionWalker struct {
	version map[refKey]arch.PFN
}

func (w *versionWalker) Walk(space arch.SpaceID, vpn arch.VPN) (Entry, bool) {
	if (uint64(vpn)+uint64(space))%7 == 0 {
		return Entry{}, false
	}
	v := w.version[refKey{space, vpn}]
	return Entry{
		PFN:         arch.PFN(uint64(vpn)*1000+uint64(space)*100) + v,
		Prot:        arch.Prot(uint64(vpn) % 3),
		NeedModTrap: vpn%2 == 0,
		Uncached:    space == 3,
	}, true
}

// checkIndex verifies the open-addressed index against the slots: it
// holds exactly the valid slots, each once, under its slot's key, each
// reachable from its home cell without crossing an empty cell.
func checkIndex(t *testing.T, tl *TLB) {
	t.Helper()
	cells, valid := 0, 0
	seen := make(map[int32]bool)
	for _, c := range tl.index.cells {
		if c.val == 0 {
			continue
		}
		cells++
		if seen[c.val] {
			t.Fatalf("slot %d indexed twice", c.val-1)
		}
		seen[c.val] = true
		if s := tl.slots[c.val-1]; !s.valid || s.space != c.space || s.vpn != c.vpn {
			t.Fatalf("index cell (space %d vpn %d) holds slot %d = %+v", c.space, c.vpn, c.val-1, s)
		}
	}
	for i, s := range tl.slots {
		if !s.valid {
			continue
		}
		valid++
		if got := int(tl.index.Get(s.space, s.vpn)); got != i {
			t.Fatalf("slot %d (space %d vpn %d) found at %d", i, s.space, s.vpn, got)
		}
	}
	if cells != valid || tl.index.n != valid {
		t.Fatalf("index holds %d cells (count %d) for %d valid slots", cells, tl.index.n, valid)
	}
}

// sameState compares the TLB against the reference slot by slot.
func sameState(t *testing.T, tl *TLB, r *refTLB, clock *sim.Clock, step string) {
	t.Helper()
	if tl.stats != r.stats || tl.tick != r.tick {
		t.Fatalf("%s: stats %+v tick %d, reference %+v tick %d", step, tl.stats, tl.tick, r.stats, r.tick)
	}
	for i := range tl.slots {
		a, b := tl.slots[i], r.slots[i]
		if a.valid != b.valid || a.valid && a != b {
			t.Fatalf("%s: slot %d = %+v, reference %+v", step, i, a, b)
		}
	}
	if want := r.stats.Misses * clock.Timing().TLBMiss; clock.Cycles() != want {
		t.Fatalf("%s: clock %d cycles, want %d for %d misses", step, clock.Cycles(), want, r.stats.Misses)
	}
	checkIndex(t, tl)
}

// TestIndexMatchesMapReference drives seeded random operation sequences
// against the TLB and the map-based reference. Tiny TLBs (index tables of
// 2 to 8 cells) over a small key range force probe runs that wrap around
// the table end and deletes that shift entries back; Clone partway
// through spawns independent copies that must each track their own
// reference copy.
func TestIndexMatchesMapReference(t *testing.T) {
	for _, entries := range []int{1, 2, 3, 4, 7, 96} {
		for seed := uint64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("entries=%d/seed=%d", entries, seed), func(t *testing.T) {
				runDifferential(t, entries, seed)
			})
		}
	}
}

func runDifferential(t *testing.T, entries int, seed uint64) {
	rng := rand.New(rand.NewPCG(seed, uint64(entries)))
	w := &versionWalker{version: make(map[refKey]arch.PFN)}
	type pair struct {
		tl    *TLB
		ref   *refTLB
		clock *sim.Clock
	}
	clock := sim.NewClock(sim.HP720Timing())
	pairs := []pair{{New(entries, clock), newRef(entries), clock}}
	spaces := arch.SpaceID(1 + entries/8)
	vpns := uint64(2*entries + 6)
	key := func() (arch.SpaceID, arch.VPN) {
		return 1 + arch.SpaceID(rng.Uint64N(uint64(spaces)+1)), arch.VPN(rng.Uint64N(vpns))
	}
	lastSpace, lastVPN := key()
	for step := 0; step < 3000; step++ {
		p := &pairs[rng.IntN(len(pairs))]
		space, vpn := key()
		if rng.IntN(3) == 0 { // repeat: exercise the last-translation cache
			space, vpn = lastSpace, lastVPN
		}
		lastSpace, lastVPN = space, vpn
		var op string
		switch k := rng.IntN(100); {
		case k < 55:
			op = "lookup"
			e, ok := p.tl.Lookup(space, vpn, w)
			re, rok := p.ref.lookup(space, vpn, w)
			if e != re || ok != rok {
				t.Fatalf("step %d lookup(%d,%d) = %+v,%t, reference %+v,%t", step, space, vpn, e, ok, re, rok)
			}
		case k < 65:
			op = "peek"
			e, ok := p.tl.Peek(space, vpn)
			re, rok := p.ref.peek(space, vpn)
			if e != re || ok != rok {
				t.Fatalf("step %d peek(%d,%d) = %+v,%t, reference %+v,%t", step, space, vpn, e, ok, re, rok)
			}
		case k < 75:
			op = "touchRepeat"
			n := rng.Uint64N(5)
			if got, want := p.tl.TouchRepeat(space, vpn, n), p.ref.touchRepeat(space, vpn, n); got != want {
				t.Fatalf("step %d touchRepeat(%d,%d,%d) = %t, reference %t", step, space, vpn, n, got, want)
			}
		case k < 90:
			op = "invalidatePage"
			p.tl.InvalidatePage(space, vpn)
			p.ref.invalidatePage(space, vpn)
			w.version[refKey{space, vpn}]++
		case k < 95:
			op = "invalidateSpace"
			p.tl.InvalidateSpace(space)
			p.ref.invalidateSpace(space)
		case k < 97:
			op = "invalidateAll"
			p.tl.InvalidateAll()
			p.ref.invalidateAll()
		default:
			op = "clone"
			if len(pairs) < 4 {
				c := p.clock.Clone()
				pairs = append(pairs, pair{p.tl.Clone(c), p.ref.clone(), c})
			}
		}
		for i := range pairs {
			sameState(t, pairs[i].tl, pairs[i].ref, pairs[i].clock, fmt.Sprintf("step %d (%s), copy %d", step, op, i))
		}
	}
}

// homeKeys returns n distinct VPNs of space 1 that w maps and whose
// probe runs start at cell h of tl's index.
func homeKeys(tl *TLB, w Walker, h, n int) []arch.VPN {
	var out []arch.VPN
	for vpn := arch.VPN(0); len(out) < n; vpn++ {
		if _, ok := w.Walk(1, vpn); ok && tl.index.home(1, vpn) == h {
			out = append(out, vpn)
		}
	}
	return out
}

// TestIndexWrapAndBackwardShift pins the two index edge cases directly:
// three keys homed on the last cell occupy it and wrap to cells 0 and 1;
// deleting the first shifts both others back so each stays reachable.
func TestIndexWrapAndBackwardShift(t *testing.T) {
	tl := New(4, sim.NewClock(sim.HP720Timing()))
	cells := tl.index.cells
	if len(cells) != 8 {
		t.Fatalf("index has %d cells, want 8", len(cells))
	}
	last := len(cells) - 1
	w := &versionWalker{version: make(map[refKey]arch.PFN)}
	keys := homeKeys(tl, w, last, 3)
	for _, vpn := range keys {
		if _, ok := tl.Lookup(1, vpn, w); !ok {
			t.Fatalf("vpn %d unmapped", vpn)
		}
	}
	for i, cell := range []int{last, 0, 1} {
		if got := cells[cell]; got.val == 0 || got.vpn != keys[i] || tl.slots[got.val-1].vpn != keys[i] {
			t.Fatalf("cell %d does not hold vpn %d (wraparound)", cell, keys[i])
		}
	}
	tl.InvalidatePage(1, keys[0])
	for i, cell := range []int{last, 0} {
		if got := cells[cell]; got.val == 0 || got.vpn != keys[i+1] || tl.slots[got.val-1].vpn != keys[i+1] {
			t.Fatalf("after delete, cell %d does not hold vpn %d (backward shift)", cell, keys[i+1])
		}
	}
	if cells[1].val != 0 {
		t.Fatal("cell 1 not emptied by the backward shift")
	}
	checkIndex(t, tl)
}

// TestSharedIndexMatchesMapReference drives the Index itself — the one
// the TLB and the pmap's page table share — against a plain map. Seeded
// random puts, deletes, lookups, clears and clones run over a small key
// range plus a few keys at the top of the VPN range. Each run starts
// from a two-cell table, so inserts grow it through several sizes and
// probe runs wrap around the table end. After every step each copy must
// hold exactly its reference's keys, each found from its home cell.
func TestSharedIndexMatchesMapReference(t *testing.T) {
	for seed := uint64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		type pair struct {
			x   Index
			ref map[refKey]int32
		}
		pairs := []pair{{NewIndex(1), map[refKey]int32{}}}
		for step := 0; step < 2000; step++ {
			p := &pairs[rng.IntN(len(pairs))]
			k := refKey{arch.SpaceID(rng.Uint64N(3)), arch.VPN(rng.Uint64N(48))}
			if rng.IntN(16) == 0 {
				k.vpn = ^k.vpn
			}
			v, present := p.ref[k]
			if !present {
				v = -1
			}
			switch op := rng.IntN(100); {
			case op < 50 && !present:
				v = rng.Int32()
				p.x.Put(k.space, k.vpn, v)
				p.ref[k] = v
			case op < 80:
				if got := p.x.Delete(k.space, k.vpn); got != v {
					t.Fatalf("seed %d step %d: Delete(%v) = %d, reference %d", seed, step, k, got, v)
				}
				delete(p.ref, k)
			case op < 97:
				if got := p.x.Get(k.space, k.vpn); got != v {
					t.Fatalf("seed %d step %d: Get(%v) = %d, reference %d", seed, step, k, got, v)
				}
			case op < 98:
				p.x.Clear()
				clear(p.ref)
			default:
				if len(pairs) < 4 {
					pairs = append(pairs, pair{p.x.Clone(), maps.Clone(p.ref)})
				}
			}
			for i := range pairs {
				checkShared(t, &pairs[i].x, pairs[i].ref, fmt.Sprintf("seed %d step %d copy %d", seed, step, i))
			}
		}
	}
}

// checkShared verifies an index against its reference map: at most half
// full, every reference key found with its value, and no other key held.
func checkShared(t *testing.T, x *Index, ref map[refKey]int32, where string) {
	t.Helper()
	if x.n != len(ref) || 2*x.n > len(x.cells) {
		t.Fatalf("%s: %d keys in %d cells, reference %d", where, x.n, len(x.cells), len(ref))
	}
	for k, v := range ref {
		if got := x.Get(k.space, k.vpn); got != v {
			t.Fatalf("%s: Get(%v) = %d, reference %d", where, k, got, v)
		}
	}
	held := 0
	for _, c := range x.cells {
		if c.val == 0 {
			continue
		}
		held++
		if v, ok := ref[refKey{c.space, c.vpn}]; !ok || v != c.val-1 {
			t.Fatalf("%s: cell holds (space %d vpn %d) = %d, reference %d,%t", where, c.space, c.vpn, c.val-1, v, ok)
		}
	}
	if held != len(ref) {
		t.Fatalf("%s: %d cells occupied, reference %d keys", where, held, len(ref))
	}
}
