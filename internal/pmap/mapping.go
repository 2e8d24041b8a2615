package pmap

import (
	"fmt"
	"slices"

	"vcache/internal/arch"
	"vcache/internal/core"
	"vcache/internal/policy"
)

// This file manages the virtual-to-physical mapping database: entering
// and removing mappings, and the unmap-time policy split between the
// eager original system (clean the cache whenever a mapping is broken)
// and the paper's lazy scheme (invalidate only the TLB and page-table
// entry; leave the consistency state in place so an aligned reuse costs
// nothing).

// Enter installs a mapping of frame f at (space, vpn) with the given VM
// protection ceiling. The hardware protection starts at none; the first
// access faults and runs the consistency algorithm. Enter is also where
// the Table 5 variants impose their styles: Tut cleans eagerly when the
// new virtual address differs from the frame's previous one, and Sun
// makes the frame uncacheable when the mapping creates an unaligned
// alias.
func (p *Pmap) Enter(space arch.SpaceID, vpn arch.VPN, f arch.PFN, maxProt arch.Prot, kind MappingKind) {
	if p.pt.lookup(space, vpn) != nil {
		panic(fmt.Sprintf("pmap: double enter at space %d vpn %#x", space, uint64(vpn)))
	}
	e := p.pt.insert(pte{space: space, vpn: vpn, pfn: f, prot: arch.ProtNone, maxProt: maxProt})
	pp := &p.phys[f]
	pp.mappings = append(pp.mappings, core.Mapping{Space: space, VPN: vpn, CachePage: p.dcolor(vpn)})

	// The Table 5 variant rules apply to real mappings only: kernel
	// preparation windows are the "well-behaved operating system code
	// fragments" through which even the Sun system permits aliased
	// access, and Tut aligns its preparatory mappings explicitly.
	if kind != KindWindow {
		switch p.feat.Variant {
		case policy.VariantTut:
			p.tutEnter(pp, f, vpn)
		case policy.VariantSun:
			p.sunEnter(pp, f, e)
		}
	}
	// A frame currently bypassing the cache (Sun unaligned aliases)
	// extends its uncached-ness to every new mapping, windows included.
	// (sunEnter already marks its own new mapping; re-marking is
	// idempotent.)
	if pp.uncached {
		e.uncached = true
	}
	// The reverse-lookup table tracks frames with live synonyms.
	p.rltEnsure(f)
}

// tutEnter applies the Tut rule: if the new virtual address for a page is
// the same as the old one, no purge or flush is required; otherwise the
// cache pages corresponding to the old and new virtual pages are removed
// from the cache. State is keyed to the virtual address, so even an
// *aligned* but unequal reuse pays the cleaning cost.
func (p *Pmap) tutEnter(pp *physPage, f arch.PFN, vpn arch.VPN) {
	if !pp.hasLast || pp.lastVPN == vpn || len(pp.mappings) > 1 {
		return
	}
	p.cleanFrame(pp, f, true /* data may be needed */)
}

// sunEnter applies the Sun rule: a frame mapped at unaligned virtual
// addresses becomes non-cacheable. Existing cached data is cleaned first.
func (p *Pmap) sunEnter(pp *physPage, f arch.PFN, e *pte) {
	if pp.uncached {
		e.uncached = true
		return
	}
	c := pp.mappings[len(pp.mappings)-1].CachePage
	unaligned := false
	for _, m := range pp.mappings[:len(pp.mappings)-1] {
		if m.CachePage != c {
			unaligned = true
			break
		}
	}
	if !unaligned {
		return
	}
	p.cleanFrame(pp, f, true)
	pp.uncached = true
	for _, m := range pp.mappings {
		if te := p.pt.lookup(m.Space, m.VPN); te != nil {
			te.uncached = true
			p.m.InvalidateTLB(m.Space, m.VPN)
		}
	}
}

// cleanFrame removes every tracked cache page of frame f from the data
// cache (flushing the dirty one if needData) and resets the frame's
// data-cache consistency state to all-empty.
func (p *Pmap) cleanFrame(pp *physPage, f arch.PFN, needData bool) {
	st := &pp.state
	if st.CacheDirty {
		w := st.DirtyCachePage()
		if needData {
			p.FlushCachePage(w, f)
		} else {
			p.PurgeCachePage(w, f)
		}
		st.CacheDirty = false
		p.ClearModified(f, w)
		st.Mapped.Clear(w)
	}
	st.Mapped.ForEach(func(c arch.CachePage) { p.PurgeCachePage(c, f) })
	st.Stale.ForEach(func(c arch.CachePage) { p.PurgeCachePage(c, f) })
	st.Mapped, st.Stale = 0, 0
	// All cache pages are now empty: deny access so the next reference
	// re-runs the algorithm.
	for _, m := range pp.mappings {
		p.SetProtection(m, arch.ProtNone)
	}
}

// Remove breaks the mapping at (space, vpn). Under the original eager
// policy the page is removed from the cache with a flush (if dirty) or a
// purge; under lazy unmap only the page-table entry and TLB entry are
// invalidated, and the cache state is left for a possible aligned reuse.
func (p *Pmap) Remove(space arch.SpaceID, vpn arch.VPN) {
	e, ok := p.pt.remove(space, vpn)
	if !ok {
		return
	}
	f := e.pfn
	c := p.dcolor(vpn)
	p.m.InvalidateTLB(space, vpn)

	pp := &p.phys[f]
	m := core.Mapping{Space: space, VPN: vpn, CachePage: c}
	for i := range pp.mappings {
		if pp.mappings[i] == m {
			pp.mappings = append(pp.mappings[:i], pp.mappings[i+1:]...)
			break
		}
	}
	pp.lastVPN = vpn
	pp.hasLast = true

	// At synonym collapse the RLT entry is dropped: a single mapping
	// needs no reverse lookup.
	if len(pp.mappings) < 2 {
		p.rltDrop(f)
	}

	if p.feat.LazyUnmap || pp.uncached {
		return
	}

	// Eager policy: clean this virtual page's cache page now.
	st := &pp.state
	sharesColor := false
	for _, other := range pp.mappings {
		if other.CachePage == c {
			sharesColor = true
			break
		}
	}
	if st.CacheDirty && st.DirtyCachePage() == c {
		p.FlushCachePage(c, f)
		st.CacheDirty = false
		p.ClearModified(f, c)
	} else if st.Mapped.Get(c) || st.Stale.Get(c) {
		p.PurgeCachePage(c, f)
	}
	if !sharesColor {
		st.Mapped.Clear(c)
		st.Stale.Clear(c)
	}
}

// RemoveAll tears down every mapping of a space (address space exit).
// Mappings are removed in ascending VPN order: removal drives flushes,
// purges, and lazy-state transitions, so the order must not depend on
// where the records happen to sit.
func (p *Pmap) RemoveAll(space arch.SpaceID) {
	var vpns []arch.VPN
	for i := int32(0); i < p.pt.n; i++ {
		if e := p.pt.at(i); e.live && e.space == space {
			vpns = append(vpns, e.vpn)
		}
	}
	slices.Sort(vpns)
	for _, vpn := range vpns {
		p.Remove(space, vpn)
	}
}

// Translate reports the frame mapped at (space, vpn), if any.
func (p *Pmap) Translate(space arch.SpaceID, vpn arch.VPN) (arch.PFN, bool) {
	if e := p.pt.lookup(space, vpn); e != nil {
		return e.pfn, true
	}
	return 0, false
}

// Protection reports the hardware protection at (space, vpn) (for tests).
func (p *Pmap) Protection(space arch.SpaceID, vpn arch.VPN) (arch.Prot, bool) {
	if e := p.pt.lookup(space, vpn); e != nil {
		return e.prot, true
	}
	return 0, false
}

// AllocFrame hands out a physical frame to be mapped at a page of the
// given data-cache color (arch.NoCachePage when unknown). Under the
// colored-free-list extension the allocator prefers an already-aligned
// frame.
func (p *Pmap) AllocFrame(wantColor arch.CachePage) (arch.PFN, error) {
	if !p.feat.ColoredFreeList {
		wantColor = arch.NoCachePage
	}
	f, aligned, err := p.alloc.Alloc(wantColor)
	if err != nil {
		return 0, err
	}
	if aligned {
		p.stats.AlignedAllocHits++
	}
	return f, nil
}

// FreeFrame returns a frame to the allocator. The frame must have no
// mappings. Under the eager policy any residual cache state is cleaned;
// under lazy unmap the state stays with the frame so its next mapping
// can still benefit from alignment.
func (p *Pmap) FreeFrame(f arch.PFN) {
	pp := &p.phys[f]
	if len(pp.mappings) != 0 {
		panic(fmt.Sprintf("pmap: freeing frame %d with %d live mappings", f, len(pp.mappings)))
	}
	pp.uncached = false
	p.rltDrop(f)
	if !p.feat.LazyUnmap {
		// needData=false: the page is being recycled; its dirty data
		// is dead. The eager configurations lack the need_data
		// optimization, so they still flush.
		p.cleanFrame(pp, f, !p.feat.NeedData)
	}
	lastColor := arch.NoCachePage
	if pp.hasLast {
		lastColor = p.dcolor(pp.lastVPN)
	}
	p.alloc.FreeFrame(f, lastColor)
}

// Downgrade lowers the VM protection ceiling of an existing mapping (the
// copy-on-write transition at fork): the hardware protection is clamped
// immediately so the next write traps to the fault handler.
func (p *Pmap) Downgrade(space arch.SpaceID, vpn arch.VPN, maxProt arch.Prot) {
	e := p.pt.lookup(space, vpn)
	if e == nil {
		return
	}
	e.maxProt = maxProt
	if e.prot > maxProt {
		e.prot = maxProt
		p.m.InvalidateTLB(space, vpn)
	}
}

// TestAndClearReferenced reports whether any mapping of frame f has been
// referenced since the last clearing, and clears every reference bit
// (with the TLB shootdown that makes the next access re-record one) —
// the page stealer's second-chance test.
func (p *Pmap) TestAndClearReferenced(f arch.PFN) bool {
	referenced := false
	for _, m := range p.phys[f].mappings {
		e := p.pt.lookup(m.Space, m.VPN)
		if e == nil {
			continue
		}
		if e.referenced {
			referenced = true
			e.referenced = false
			p.m.InvalidateTLB(m.Space, m.VPN)
		}
	}
	return referenced
}

// UnmapFrame breaks every virtual mapping of frame f (the page stealer
// uses it before evicting a page to the swap device).
func (p *Pmap) UnmapFrame(f arch.PFN) {
	pp := &p.phys[f]
	for len(pp.mappings) > 0 {
		m := pp.mappings[0]
		p.Remove(m.Space, m.VPN)
	}
}
