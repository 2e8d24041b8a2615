package core

import (
	"fmt"

	"vcache/internal/arch"
)

// This file implements the paper's Figure 1: the CacheControl code
// sequence that runs in the machine-dependent module of the virtual
// memory system. It must be invoked before any operation that could
// change the consistency state of cache pages: the fault handler invokes
// it for CPU reads and writes (virtual memory protections are set so that
// state-changing accesses trap), and the I/O layer invokes it before
// scheduling DMA operations.

// Mapping identifies one virtual mapping of a physical page.
type Mapping struct {
	Space arch.SpaceID
	VPN   arch.VPN
	// CachePage is the data-cache color of the virtual page.
	CachePage arch.CachePage
}

func (m Mapping) String() string {
	return fmt.Sprintf("space %d vpn %#x (color %d)", m.Space, uint64(m.VPN), m.CachePage)
}

// Hardware is the cache-control interface the processor exports: flush
// and purge at cache-page granularity (the set of lines a virtual page
// maps onto).
type Hardware interface {
	// FlushCachePage removes frame f's lines from cache page c,
	// writing dirty lines back to memory first.
	FlushCachePage(c arch.CachePage, f arch.PFN)
	// PurgeCachePage removes frame f's lines from cache page c without
	// writing anything back.
	PurgeCachePage(c arch.CachePage, f arch.PFN)
}

// MappingTable is the view of the physical-to-virtual mapping database
// the algorithm needs: the list of current mappings of a frame, and the
// ability to set the hardware page protection of each (with the
// associated TLB invalidation).
type MappingTable interface {
	// Mappings returns the current virtual mappings of frame f.
	Mappings(f arch.PFN) []Mapping
	// SetProtection sets the hardware protection of mapping m.
	SetProtection(m Mapping, p arch.Prot)
	// ClearModified clears the page-modified bookkeeping for every
	// mapping of frame f on cache page c, so the next store through
	// any of them re-traps (modify fault) and cache_dirty can be
	// re-established. Called whenever the algorithm clears CacheDirty
	// without otherwise touching protections (the DMA paths).
	ClearModified(f arch.PFN, c arch.CachePage)
}

// Options carries the two semantic hints of Figure 1 that let the
// implementation avoid purges and flushes entirely.
type Options struct {
	// WillOverwrite asserts that the CPU will completely overwrite the
	// target page before any other access reads it (page preparation
	// by copy or zero-fill), so a stale target page need not be purged
	// first.
	WillOverwrite bool
	// NeedData asserts that dirty data in the cache is still useful
	// data. When false (e.g. a recycled physical page about to be
	// copied into or zeroed), a dirty page can be purged instead of
	// flushed.
	NeedData bool
}

// Stats counts the consistency operations the controller issues, in the
// categories the paper's Table 4 reports.
type Stats struct {
	Invocations    uint64
	PageFlushes    uint64 // data-cache page flushes issued
	PagePurges     uint64 // data-cache page purges issued
	FlushesAvoided uint64 // dirty pages purged instead (need_data false)
	PurgesAvoided  uint64 // stale pages not purged (will_overwrite)
	DMAReadFlushes uint64 // flushes forced by DMA-read
	DMAWritePurges uint64 // purges forced by DMA-write
}

// Controller runs the CacheControl algorithm against a Hardware and a
// MappingTable. On a uniprocessor the sequence runs with interrupts
// disabled; the simulated kernel is single-threaded, which provides the
// same atomicity.
type Controller struct {
	hw    Hardware
	mt    MappingTable
	stats Stats
}

// NewController returns a controller issuing cache operations to hw and
// protection updates to mt.
func NewController(hw Hardware, mt MappingTable) *Controller {
	return &Controller{hw: hw, mt: mt}
}

// Stats returns a snapshot of the operation counters.
func (ctl *Controller) Stats() Stats { return ctl.stats }

// Clone returns a controller carrying the same counters but issuing
// operations to a fork's hardware and mapping table (snapshot/fork
// support).
func (ctl *Controller) Clone(hw Hardware, mt MappingTable) *Controller {
	return &Controller{hw: hw, mt: mt, stats: ctl.stats}
}

// ResetStats zeroes the counters.
func (ctl *Controller) ResetStats() { ctl.stats = Stats{} }

// CacheControl ensures the consistency state of physical frame f permits
// operation op on target cache page c, updating st in place. For DMA
// operations, pass arch.NoCachePage as the target.
//
// This is a direct transcription of Figure 1: the six stanzas appear in
// order, with the stanza-by-stanza comments from the paper.
func (ctl *Controller) CacheControl(f arch.PFN, st *PageState, c arch.CachePage, op Operation, opts Options) {
	ctl.stats.Invocations++

	// Stanza 2: remove the contents of a dirty cache page when it is
	// not the operation's target. A dirty page can be mapped through
	// only one cache page; find_mapped_cache_page returns it.
	if st.CacheDirty {
		w := st.DirtyCachePage()
		if op == DMAWrite || op == DMARead || w != c {
			if opts.NeedData {
				ctl.hw.FlushCachePage(w, f)
				ctl.stats.PageFlushes++
				if op == DMARead {
					ctl.stats.DMAReadFlushes++
				}
			} else {
				ctl.hw.PurgeCachePage(w, f)
				ctl.stats.PagePurges++
				ctl.stats.FlushesAvoided++
				if op == DMAWrite {
					ctl.stats.DMAWritePurges++
				}
			}
			st.CacheDirty = false
			// The page is no longer dirty in the cache: clear the
			// modified bookkeeping so the next store through any
			// mapping on w re-traps and re-establishes
			// cache_dirty. (The DMA paths leave protections
			// untouched, so without this a later write would go
			// unobserved and a subsequent unaligned read could
			// miss the flush it needs.)
			ctl.mt.ClearModified(f, w)
		}
	}

	// Stanza 3: ensure the target cache page is not stale. Only
	// relevant for a CPU access. If the page is about to be entirely
	// overwritten, the purge is unnecessary — the stale data leaves
	// the stale state by being overwritten.
	if (op == CPURead || op == CPUWrite) && st.Stale.Get(c) {
		if !opts.WillOverwrite {
			ctl.hw.PurgeCachePage(c, f)
			ctl.stats.PagePurges++
		} else {
			ctl.stats.PurgesAvoided++
		}
		st.Stale.Clear(c)
	}

	// Stanza 4: DMA input operations and write operations force all
	// mapped and stale cache pages to stale, and all mapped pages to
	// unmapped. For a CPU write, the target cache page is then marked
	// not stale, dirty, and mapped.
	if op == DMAWrite || op == CPUWrite {
		st.Stale |= st.Mapped
		st.Mapped = 0
		if op == CPUWrite {
			st.Stale.Clear(c)
			st.CacheDirty = true
			st.Mapped.Set(c)
		}
	}

	// Stanza 5: a CPU read marks the target cache page mapped — it may
	// now contain data from the physical page.
	if op == CPURead {
		st.Mapped.Set(c)
	}

	// Stanza 6: set the virtual memory page protections for all
	// mappings to the physical page to be consistent with the cache
	// page state: stale or unmapped pages must trap on any access;
	// after a write, mappings aligned with the dirty page may be
	// read-write; after a read, mappings aligned with a present page
	// are read-only so the first store traps.
	for _, m := range ctl.mt.Mappings(f) {
		mc := m.CachePage
		switch {
		case st.Stale.Get(mc):
			ctl.mt.SetProtection(m, arch.ProtNone)
		case !st.Mapped.Get(mc):
			ctl.mt.SetProtection(m, arch.ProtNone)
		case op == CPUWrite:
			ctl.mt.SetProtection(m, arch.ProtReadWrite)
		case op == CPURead:
			ctl.mt.SetProtection(m, arch.ProtRead)
		}
	}
}

// NoteModified implements the paper's modified-bit optimization: "the
// actual implementation includes an optimization that sets
// P[p].cache_dirty whenever the virtual memory system sets the
// page-modified bit yet the number of mapped bits is one." The pmap layer
// calls this from the modify-fault handler instead of running the full
// algorithm. It returns false when the fast path does not apply (the
// caller must then fall back to CacheControl with CPUWrite).
func (ctl *Controller) NoteModified(st *PageState, c arch.CachePage) bool {
	if st.Mapped.Count() == 1 && st.Mapped.Get(c) && !st.Stale.Get(c) {
		st.CacheDirty = true
		return true
	}
	return false
}
