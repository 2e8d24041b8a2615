package pmap

import (
	"vcache/internal/arch"
	"vcache/internal/core"
)

// User-requested cache maintenance — the cacheflush(2)-style syscalls
// behind kernel.FlushPage and kernel.PurgePage. The CacheControl
// algorithm only ever runs flush and purge as *consequences* of the
// four memory operations; these entry points apply the Table 2 OpFlush
// and OpPurge transitions directly, at a page the user names.
//
// Either way the named cache page ends Empty, so both finish by
// revoking hardware access to every same-color mapping of the frame:
// the next touch re-faults through Access, which reruns the algorithm
// and re-establishes the mapped state. Without that revocation the
// software state (Empty) and hardware behavior (silent refill on the
// still-valid translation) would diverge, and a later DMA write could
// skip a stale marking the oracle depends on.

// FlushUser writes frame data cached at (space, vpn)'s color back to
// memory and invalidates it: the Table 2 OpFlush transition. A stale
// page is purged instead — stale data must never be written back.
func (p *Pmap) FlushUser(space arch.SpaceID, vpn arch.VPN) error {
	return p.userCacheOp(core.OpFlush, space, vpn)
}

// PurgeUser discards frame data cached at (space, vpn)'s color without
// write-back: the Table 2 OpPurge transition. A dirty page degrades to
// a flush, as real cacheflush implementations do — purging the only
// copy of modified data would hand every later reader a stale value
// (an oracle violation, not a cache-management choice).
func (p *Pmap) PurgeUser(space arch.SpaceID, vpn arch.VPN) error {
	return p.userCacheOp(core.OpPurge, space, vpn)
}

func (p *Pmap) userCacheOp(op core.Operation, space arch.SpaceID, vpn arch.VPN) error {
	e := p.pt.lookup(space, vpn)
	if e == nil {
		// No page-table entry: this space has never touched the page
		// (the kernel validated the address against the VM map before
		// calling), so no data was ever cached through this mapping —
		// there is nothing to flush or purge.
		return nil
	}
	f := e.pfn
	pp := &p.phys[f]
	if pp.uncached || e.uncached {
		return nil // Sun variant: nothing is cached
	}
	c := p.dcolor(vpn)
	// Coverage sees the *requested* operation against the pre-transition
	// state; the purge-of-dirty downgrade below is invisible to it. The
	// consequence events come from FlushCachePage/PurgeCachePage; the
	// cause side is the kernel op log's flushp/purgep entry — nothing is
	// emitted here (EvOp notes must stay in the replay grammar).
	p.observe(op, f, c)
	st := &pp.state
	switch st.StateOf(c) {
	case core.Dirty:
		p.FlushCachePage(c, f)
		st.CacheDirty = false
		st.Mapped.Clear(c)
		p.ClearModified(f, c)
	case core.Present:
		if op == core.OpFlush {
			p.FlushCachePage(c, f)
		} else {
			p.PurgeCachePage(c, f)
		}
		st.Mapped.Clear(c)
	case core.Stale:
		p.PurgeCachePage(c, f)
		st.Stale.Clear(c)
	case core.Empty:
		// Nothing cached at this color; still revoke below so replayed
		// runs take the same fault sequence regardless of prior state.
	}
	for _, m := range p.phys[f].mappings {
		if m.CachePage == c {
			p.SetProtection(m, arch.ProtNone)
		}
	}
	p.chargeBookkeeping(50)
	return nil
}
