package pmap

import (
	"slices"

	"vcache/internal/core"
	"vcache/internal/machine"
	"vcache/internal/mem"
)

// Clone returns an independent copy of the pmap wired to forked machine
// m2 (snapshot/fork support), registering itself as m2's page-table
// walker. Page tables, the physical page database, the window pool, the
// preparation cursor, the backend state, and the frame allocator are
// all copied deeply — the allocator's free-list order in particular, so
// a fork recycles frames in exactly the sequence the original would
// have. The tracer
// and coverage map are deliberately not carried over: both are attached
// per run, after forking, so no fork's events can leak into the shared
// snapshot or a sibling.
func (p *Pmap) Clone(m2 *machine.Machine) *Pmap {
	p2 := &Pmap{
		geom:       p.geom,
		m:          m2,
		alloc:      p.alloc.Clone(),
		feat:       p.feat,
		pt:         p.pt.clone(),
		phys:       slices.Clone(p.phys),
		windows:    &windowPool{ncolors: p.windows.ncolors, free: mem.CloneLists(p.windows.free)},
		prepCursor: p.prepCursor,
		dColors:    p.dColors,
		iColors:    p.iColors,
		stats:      p.stats,
		rlt:        slices.Clone(p.rlt),
	}
	mem.CopyLists(p2.phys, func(pp *physPage) *[]core.Mapping { return &pp.mappings })
	p2.ctl = p.ctl.Clone(p2, p2)
	m2.SetWalker(p2)
	return p2
}
