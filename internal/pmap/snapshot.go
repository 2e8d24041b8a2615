package pmap

import (
	"slices"

	"vcache/internal/arch"
	"vcache/internal/core"
	"vcache/internal/machine"
	"vcache/internal/mem"
)

// Clone returns an independent copy of the pmap wired to forked machine
// m2 (snapshot/fork support), registering itself as m2's page-table
// walker. Page tables, the physical page database, the window pool, the
// preparation cursor, and the frame allocator are all copied deeply —
// the allocator's free-list order in particular, so a fork recycles
// frames in exactly the sequence the original would have. The tracer
// and coverage map are deliberately not carried over: both are attached
// per run, after forking, so no fork's events can leak into the shared
// snapshot or a sibling.
func (p *Pmap) Clone(m2 *machine.Machine) *Pmap {
	p2 := &Pmap{
		geom:        p.geom,
		m:           m2,
		alloc:       p.alloc.Clone(),
		feat:        p.feat,
		pt:          p.pt.clone(),
		phys:        slices.Clone(p.phys),
		windows:     &windowPool{ncolors: p.windows.ncolors, free: mem.CloneLists(p.windows.free)},
		prepCursor:  p.prepCursor,
		dColors:     p.dColors,
		iColors:     p.iColors,
		stats:       p.stats,
		accessIsNew: p.accessIsNew,
	}
	mem.CopyLists(p2.phys, func(pp *physPage) *[]core.Mapping { return &pp.mappings })
	if p.rlt != nil {
		p2.rlt = &rltState{order: slices.Clone(p.rlt.order)}
	}
	if p.hybridPending != nil {
		p2.hybridPending = append([]arch.PFN(nil), p.hybridPending...)
	}
	p2.ctl = p.ctl.Clone(p2, p2)
	// Controller hooks are not carried by ctl.Clone (they close over
	// the originating pmap); reinstall them against the fork.
	p2.installBackendHooks()
	m2.SetWalker(p2)
	return p2
}
