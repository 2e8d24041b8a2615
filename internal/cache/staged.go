package cache

import (
	"vcache/internal/arch"
	"vcache/internal/mem"
	"vcache/internal/sim"
)

// Staged execution of the page-granular maintenance operations, for the
// machine's parallel broadcast path. A multiprocessor flush or purge is
// one operation per CPU on that CPU's *private* cache — the only shared
// state the per-CPU halves touch is physical memory (dirty write-backs)
// and the cycle clock. FlushPageStage/PurgePageStage run the private
// half immediately (line lookups, invalidations, the cache's own stats)
// and record the shared half into a Staged; Apply then performs the
// recorded memory writes and cycle charges.
//
// Running the stage halves concurrently (one goroutine per CPU) and
// applying the staged effects serially in CPU index order is
// byte-identical to the serial per-CPU loop:
//
//   - staging reads and writes only the cache's own lines and counters
//     (its stats and its per-frame residency counts), and neither flush
//     nor purge ever *reads* memory, so concurrent stages cannot observe
//     each other;
//   - within one broadcast every staged write-back targets a distinct
//     line address (a frame's line maps to exactly one set of a cache
//     page, and hardware snooping keeps at most one dirty copy of any
//     aligned line across CPUs), so the apply order across CPUs cannot
//     change the final memory image;
//   - cycle charges commute — only the per-category totals are ever
//     observable.
//
// The serial FlushPage/PurgePage entry points are implemented on the
// staged halves (stage, then apply immediately), so there is exactly one
// implementation of the maintenance semantics to keep correct.

// stagedLine is one deferred dirty write-back. The data slice aliases
// the cache line's backing array; that is safe because the line was
// invalidated during staging and cannot be refilled before Apply runs.
type stagedLine struct {
	tag  arch.PA
	data []uint64
}

// Staged accumulates the shared-state effects of one staged maintenance
// operation: the dirty lines to write back, in discovery order, and the
// cycle total for the operation's single charge category.
type Staged struct {
	lines  []stagedLine
	cat    sim.Category
	cycles uint64
}

// Apply performs the staged effects: memory write-backs in staged
// order, then the accumulated cycle charge.
func (st *Staged) Apply(m *mem.Memory, clock *sim.Clock) {
	for _, ln := range st.lines {
		m.WriteLine(ln.tag, ln.data)
	}
	if st.cycles > 0 {
		clock.Charge(st.cat, st.cycles)
	}
	st.lines = st.lines[:0]
	st.cycles = 0
}

// FlushPageStage is the private half of FlushPage: it invalidates frame
// f's lines in cache page cp and counts stats exactly as FlushPage
// does, but defers the dirty write-backs and the CatFlush cycle charges
// into st. Each set of the page is charged a hit or a miss, so the total
// follows from the number of lines dropped without visiting every set.
func (c *Cache) FlushPageStage(cp arch.CachePage, f arch.PFN, st *Staged) {
	c.stats.PageFlushes++
	t := c.clock.Timing()
	st.cat = sim.CatFlush
	lo, hi := c.pageSets(cp, f)
	hits := c.dropFrame(lo, hi, f, st)
	st.cycles += hits*t.LineFlushHit + (hi-lo-hits)*t.LineFlushMiss
}

// PurgePageStage is the private half of PurgePage: invalidation without
// write-back, with the CatPurge cycle charges deferred into st. A purge
// never writes memory, so its staged effect is the charge alone.
func (c *Cache) PurgePageStage(cp arch.CachePage, f arch.PFN, st *Staged) {
	c.stats.PagePurges++
	t := c.clock.Timing()
	st.cat = sim.CatPurge
	lo, hi := c.pageSets(cp, f)
	hits := c.dropFrame(lo, hi, f, nil)
	if c.cfg.ConstantPagePurge {
		st.cycles += t.ICachePagePurge
		return
	}
	st.cycles += hits*t.LinePurgeHit + (hi-lo-hits)*t.LinePurgeMiss
}
