// Package tlb implements a software-visible translation lookaside buffer.
//
// The TLB caches virtual-to-physical page translations together with the
// page protection and the modify-trap flag. As on the PA-RISC, address
// translation proceeds in parallel with the (virtually indexed) cache
// lookup, and the resulting physical frame is compared against the
// cache's physical tag. The operating system must invalidate TLB entries
// whenever it changes a translation or protection — the consistency
// algorithm depends on stale-protection accesses being impossible.
package tlb

import (
	"slices"

	"vcache/internal/arch"
	"vcache/internal/sim"
)

// Entry is one cached translation.
type Entry struct {
	PFN  arch.PFN
	Prot arch.Prot
	// NeedModTrap is set when the underlying page-table entry has not
	// yet recorded a modification: the first write through this entry
	// traps to the kernel (the PA-RISC "TLB dirty bit" trap), which is
	// how the paper's implementation learns that a present cache page
	// has become dirty without taking a protection fault on every
	// store ("sets P[p].cache_dirty whenever the virtual memory system
	// sets the page-modified bit yet the number of mapped bits is
	// one").
	NeedModTrap bool
	// Uncached makes accesses through this translation bypass the
	// caches entirely. Used by the Sun-style policy of Table 5, which
	// makes unaligned aliases non-cacheable instead of managing them.
	Uncached bool
}

// Walker is the page-table walk the hardware performs on a TLB miss.
// It is implemented by the pmap layer.
type Walker interface {
	// Walk returns the translation for (space, vpn), or ok=false when
	// no mapping exists (which the machine raises as a mapping fault).
	Walk(space arch.SpaceID, vpn arch.VPN) (Entry, bool)
}

type slot struct {
	space arch.SpaceID
	vpn   arch.VPN
	entry Entry
	valid bool
	lru   uint64
}

// Stats counts TLB events.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Shootdowns uint64
}

// TLB is a fully associative, LRU-replaced translation cache.
// It is not safe for concurrent use.
//
// The valid slots are found through an Index sized for every slot, so
// it never grows. A one-entry last-translation cache (last/lastValid)
// fronts the table: straight-line page loops hit the same slot on every
// access. Both are pure mechanism — replacement still scans slots by
// LRU stamp, and every hit does the same bookkeeping (tick, stats, LRU
// stamp) however it was found.
type TLB struct {
	slots []slot
	index Index
	clock *sim.Clock
	tick  uint64
	stats Stats

	// last is the slot index of the most recent hit or refill;
	// lastValid gates it. Invalidation clears it unconditionally —
	// correctness never depends on it being set.
	last      int
	lastValid bool
}

// New returns a TLB with the given number of entries.
func New(entries int, clock *sim.Clock) *TLB {
	if entries <= 0 {
		entries = 96 // the PA7000's combined TLB size class
	}
	return &TLB{
		slots: make([]slot, entries),
		index: NewIndex(entries),
		clock: clock,
	}
}

// Stats returns a snapshot of the counters.
func (t *TLB) Stats() Stats { return t.stats }

// Clone returns an independent copy of the TLB charging cycles to clock
// (snapshot/fork support). Slots, the index, the LRU tick, and the
// one-entry last-translation cache are all preserved so a fork's
// replacement decisions replay identically.
func (t *TLB) Clone(clock *sim.Clock) *TLB {
	t2 := *t
	t2.clock = clock
	t2.slots = slices.Clone(t.slots)
	t2.index = t.index.Clone()
	return &t2
}

// resident returns the slot holding (space, vpn), or -1, trying the
// last-translation cache before the index.
func (t *TLB) resident(space arch.SpaceID, vpn arch.VPN) int {
	if t.lastValid {
		if s := &t.slots[t.last]; s.valid && s.vpn == vpn && s.space == space {
			return t.last
		}
	}
	return int(t.index.Get(space, vpn))
}

// Lookup translates (space, vpn), walking the page tables via w on a
// miss. ok=false means no translation exists.
func (t *TLB) Lookup(space arch.SpaceID, vpn arch.VPN, w Walker) (Entry, bool) {
	t.tick++
	if i := t.resident(space, vpn); i >= 0 {
		t.stats.Hits++
		t.slots[i].lru = t.tick
		t.last, t.lastValid = i, true
		return t.slots[i].entry, true
	}
	t.stats.Misses++
	t.clock.Charge(sim.CatAccess, t.clock.Timing().TLBMiss)
	e, ok := w.Walk(space, vpn)
	if !ok {
		return Entry{}, false
	}
	t.insert(space, vpn, e)
	return e, true
}

// Peek reports the resident translation for (space, vpn) without any
// bookkeeping at all — no tick, no hit count, no LRU update. The bulk
// page paths use it to learn the physical frame and cacheability after
// the first word's full access has refilled the TLB; the accesses they
// then model in bulk go through TouchRepeat, which does the accounting.
func (t *TLB) Peek(space arch.SpaceID, vpn arch.VPN) (Entry, bool) {
	if i := t.index.Get(space, vpn); i >= 0 {
		return t.slots[i].entry, true
	}
	return Entry{}, false
}

// TouchRepeat records n further hits on a resident translation in one
// step — the bulk page paths use it for the repeated same-page accesses
// of a zero or copy loop. It is observably identical to n sequential
// Lookup hits: tick advances by n, the hit counter by n, and the slot's
// LRU stamp lands on the final tick (the intermediate stamps of a real
// loop are each overwritten by the next, so only the last one is ever
// visible to replacement). Reports false (and does nothing) if the
// translation is not resident.
func (t *TLB) TouchRepeat(space arch.SpaceID, vpn arch.VPN, n uint64) bool {
	if n == 0 {
		return true
	}
	i := t.resident(space, vpn)
	if i < 0 {
		return false
	}
	t.tick += n
	t.stats.Hits += n
	t.slots[i].lru = t.tick
	t.last, t.lastValid = i, true
	return true
}

func (t *TLB) insert(space arch.SpaceID, vpn arch.VPN, e Entry) {
	victim := 0
	for i := range t.slots {
		if !t.slots[i].valid {
			victim = i
			goto place
		}
		if t.slots[i].lru < t.slots[victim].lru {
			victim = i
		}
	}
	t.stats.Evictions++
	t.index.Delete(t.slots[victim].space, t.slots[victim].vpn)
place:
	t.slots[victim] = slot{space: space, vpn: vpn, entry: e, valid: true, lru: t.tick}
	t.index.Put(space, vpn, int32(victim))
	t.last, t.lastValid = victim, true
}

// drop invalidates valid slot i.
func (t *TLB) drop(i int) {
	t.index.Delete(t.slots[i].space, t.slots[i].vpn)
	t.slots[i].valid = false
	if t.last == i {
		t.lastValid = false
	}
}

// InvalidatePage drops any cached translation for (space, vpn). The pmap
// layer must call this whenever it changes that page's mapping,
// protection, or modify-trap state.
func (t *TLB) InvalidatePage(space arch.SpaceID, vpn arch.VPN) {
	if i := t.index.Get(space, vpn); i >= 0 {
		t.stats.Shootdowns++
		t.drop(int(i))
	}
}

// InvalidateSpace drops every cached translation belonging to one
// address space — the migration shootdown: when the kernel moves a
// process to another CPU, the CPU it left must retain no translations
// of the migrating space. Counted as a single shootdown like
// InvalidateAll (one IPI, however many entries it clears).
func (t *TLB) InvalidateSpace(space arch.SpaceID) {
	t.stats.Shootdowns++
	for i := range t.slots {
		if t.slots[i].valid && t.slots[i].space == space {
			t.drop(i)
		}
	}
}

// InvalidateAll flushes the whole TLB.
func (t *TLB) InvalidateAll() {
	t.stats.Shootdowns++
	for i := range t.slots {
		t.slots[i].valid = false
	}
	t.index.Clear()
	t.lastValid = false
}
