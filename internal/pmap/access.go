package pmap

import (
	"fmt"

	"vcache/internal/arch"
	"vcache/internal/core"
	"vcache/internal/machine"
	"vcache/internal/trace"
)

// This file resolves CPU accesses at fault time. The virtual memory
// protections are set (by CacheControl's final stanza) so that every
// access requiring a consistency state transition traps; the kernel's
// fault handler calls into here to run the algorithm and then retries
// the access.

// Access runs the consistency algorithm for a CPU access of the given
// kind at (space, vpn). The mapping must already exist (the kernel's
// fault handler establishes it first for mapping faults). newMapping
// attributes any resulting purge to new-mapping creation for the
// Section 5.1 breakdown.
func (p *Pmap) Access(space arch.SpaceID, vpn arch.VPN, acc machine.Access, newMapping bool) error {
	e := p.pt.lookup(space, vpn)
	if e == nil {
		return fmt.Errorf("pmap: access to unmapped space %d vpn %#x", space, uint64(vpn))
	}
	if acc == machine.AccessExecute {
		return p.accessExecute(space, vpn, e)
	}
	f := e.pfn
	pp := &p.phys[f]

	if pp.uncached {
		// Sun variant: the frame bypasses the cache; no consistency
		// management is needed, just grant the access.
		e.uncached = true
		p.SetProtection(core.Mapping{Space: space, VPN: vpn, CachePage: p.dcolor(vpn)}, e.maxProt)
		return nil
	}

	op := core.CPURead
	if acc == machine.AccessWrite {
		if !e.maxProt.CanWrite() {
			return fmt.Errorf("pmap: write denied at space %d vpn %#x (max %v)", space, uint64(vpn), e.maxProt)
		}
		op = core.CPUWrite
	}

	c := p.dcolor(vpn)
	p.observe(op, f, c)
	p.control(f, c, op, core.Options{NeedData: true}, newMapping, true)

	if op == core.CPUWrite {
		// The faulting store is about to land: record the modified
		// bit so it does not immediately re-trap, and invalidate any
		// instruction-cache copies of the frame.
		e.modified = true
		p.m.InvalidateTLB(space, vpn)
		p.noteFrameWritten(pp)
	}

	if !p.feat.LazyUnmap {
		p.eagerResolveStale(pp, f)
	}
	return nil
}

// ModifyFault handles the first store through a read-write translation
// whose page-modified bit is clear (the TLB dirty-bit trap). The fast
// path is the paper's optimization: set cache_dirty directly when
// exactly one cache page is mapped; otherwise fall back to the full
// algorithm.
func (p *Pmap) ModifyFault(space arch.SpaceID, vpn arch.VPN) error {
	e := p.pt.lookup(space, vpn)
	if e == nil {
		return fmt.Errorf("pmap: modify fault on unmapped space %d vpn %#x", space, uint64(vpn))
	}
	p.stats.ModifyFaults++
	p.emit(trace.EvModifyFault, e.pfn, p.dcolor(vpn), "")
	e.modified = true
	p.m.InvalidateTLB(space, vpn)
	if e.uncached {
		return nil
	}
	f := e.pfn
	pp := &p.phys[f]
	c := p.dcolor(vpn)
	p.observe(core.CPUWrite, f, c)
	if !p.ctl.NoteModified(&pp.state, c) {
		p.control(f, c, core.CPUWrite, core.Options{NeedData: true}, false, true)
	}
	p.noteFrameWritten(pp)
	if !p.feat.LazyUnmap {
		p.eagerResolveStale(pp, f)
	}
	return nil
}

// accessExecute resolves an instruction fetch. The data-cache side is
// handled with the DMA-read transitions — a fetch, like a device, reads
// memory without going through the data cache, so any dirty data must be
// flushed first. The instruction-cache side purges a stale page and
// marks the target mapped.
func (p *Pmap) accessExecute(space arch.SpaceID, vpn arch.VPN, e *pte) error {
	f := e.pfn
	pp := &p.phys[f]
	if !pp.uncached {
		p.observe(core.DMARead, f, arch.NoCachePage)
		p.control(f, arch.NoCachePage, core.DMARead, core.Options{NeedData: true}, false, false)
		ic := p.icolor(vpn)
		if pp.iStale.Get(ic) {
			p.purgeICachePage(ic, f)
			pp.iStale.Clear(ic)
		}
		pp.iMapped.Set(ic)
	}
	// Grant fetch (read) access.
	p.SetProtection(core.Mapping{Space: space, VPN: vpn, CachePage: p.dcolor(vpn)}, arch.ProtRead)
	return nil
}

// noteFrameWritten records a CPU or DMA write into the frame for the
// instruction-cache state: every mapped I-cache page becomes stale.
func (p *Pmap) noteFrameWritten(pp *physPage) {
	pp.iStale |= pp.iMapped
	pp.iMapped = 0
}

// eagerResolveStale implements the original system's style: instead of
// leaving stale cache pages to be purged lazily on their next use, purge
// them as soon as they arise (the "old" system removed pages from the
// cache at the moment a mapping was broken).
func (p *Pmap) eagerResolveStale(pp *physPage, f arch.PFN) {
	if pp.state.Stale == 0 {
		return
	}
	pp.state.Stale.ForEach(func(c arch.CachePage) {
		p.PurgeCachePage(c, f)
	})
	pp.state.Stale = 0
	// The purged pages are now empty; their mappings keep ProtNone and
	// will re-fault, which matches the old system's "break all other
	// mappings" behavior.
}

// CountConsistencyFault and CountMappingFault let the kernel's trap
// handler attribute faults the way the paper's Table 4 does: mapping
// faults occur regardless of the cache architecture (first touch of a
// page), while consistency faults exist only because the cache is
// virtually indexed.
func (p *Pmap) CountConsistencyFault() {
	p.stats.ConsistencyFaults++
	p.emit(trace.EvConsistencyFault, 0, arch.NoCachePage, "")
}

// CountMappingFault counts a first-touch mapping fault.
func (p *Pmap) CountMappingFault() {
	p.stats.MappingFaults++
	p.emit(trace.EvMappingFault, 0, arch.NoCachePage, "")
}
