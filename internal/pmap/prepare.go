package pmap

import (
	"fmt"

	"vcache/internal/arch"
	"vcache/internal/core"
	"vcache/internal/trace"
)

// This file implements page preparation: zero-fill, page copy, and the
// data-to-instruction-space copy taken on text faults. Preparation runs
// through transient kernel "window" mappings; whether the window aligns
// in the cache with the page's eventual mapping is the paper's
// "+aligned prepare" optimization (configuration D), and the need_data /
// will_overwrite options are configurations E and F.

// windowBaseVPN is the first kernel virtual page of the preparation
// window area. It is a multiple of 64 so that window slot colors are the
// low bits of the VPN regardless of geometry.
const windowBaseVPN arch.VPN = 0xC0000

// windowSlotsPerColor bounds how many windows of one color can be live
// at once (zero-fill needs one, copy needs two).
const windowSlotsPerColor = 4

// windowPool hands out kernel window pages by data-cache color.
type windowPool struct {
	ncolors uint64
	free    [][]arch.VPN
}

func newWindowPool(geom arch.Geometry) *windowPool {
	n := geom.DCachePages()
	// release recovers a window's color from its VPN offset relative to
	// windowBaseVPN; windows are laid out at base + slot*ncolors + color,
	// so the recovery is exact for any base. The historical shortcut of
	// reducing the raw VPN additionally requires the base itself to be
	// color-aligned — keep that invariant checked so a future geometry
	// (or base move) that breaks it fails loudly instead of silently
	// corrupting the pool.
	if uint64(windowBaseVPN)%n != 0 {
		panic(fmt.Sprintf("pmap: window base %#x not aligned to %d cache colors",
			uint64(windowBaseVPN), n))
	}
	wp := &windowPool{ncolors: n, free: make([][]arch.VPN, n)}
	for c := uint64(0); c < n; c++ {
		for s := uint64(0); s < windowSlotsPerColor; s++ {
			wp.free[c] = append(wp.free[c], windowBaseVPN+arch.VPN(s*n+c))
		}
	}
	return wp
}

func (wp *windowPool) acquire(c arch.CachePage) arch.VPN {
	lst := wp.free[c]
	if len(lst) == 0 {
		panic(fmt.Sprintf("pmap: window pool exhausted for color %d", c))
	}
	vpn := lst[len(lst)-1]
	wp.free[c] = lst[:len(lst)-1]
	return vpn
}

func (wp *windowPool) release(vpn arch.VPN) {
	c := uint64(vpn-windowBaseVPN) % wp.ncolors
	wp.free[c] = append(wp.free[c], vpn)
}

// prepColor picks the window color for preparing a page whose eventual
// mapping is eventualVPN. With aligned preparation the window aligns
// with the eventual mapping; otherwise the original first-fit behavior
// is modeled by rotating through the colors (the kernel's old window
// addresses were arbitrary with respect to the destination).
func (p *Pmap) prepColor(eventualVPN arch.VPN) arch.CachePage {
	if p.feat.AlignedPrepare && eventualVPN != NoVPN {
		return p.dcolor(eventualVPN)
	}
	c := arch.CachePage(p.prepCursor % p.dColors)
	p.prepCursor++
	return c
}

// prepareWrite maps frame f at a fresh window of the given color and
// runs the consistency algorithm for the full-page overwrite about to
// happen. The caller must call releaseWindow afterwards.
func (p *Pmap) prepareWrite(f arch.PFN, color arch.CachePage) arch.VPN {
	wvpn := p.windows.acquire(color)
	p.Enter(arch.KernelSpace, wvpn, f, arch.ProtReadWrite, KindWindow)
	pp := &p.phys[f]
	if !pp.uncached {
		opts := core.Options{
			// The previous contents of the frame are dead: it is
			// being recycled. With the need_data optimization a
			// dirty page can be purged instead of flushed.
			NeedData: !p.feat.NeedData,
			// The CPU is about to overwrite the entire page; with
			// the will_overwrite optimization a stale target page
			// need not be purged first.
			WillOverwrite: p.feat.WillOverwrite,
		}
		// Any purge taken here exists because a fresh virtual address
		// was bound to a recycled physical page — the "new mapping"
		// cause of Section 5.1.
		p.observe(core.CPUWrite, f, p.dcolor(wvpn))
		p.control(f, p.dcolor(wvpn), core.CPUWrite, opts, true, false)
		if !p.feat.LazyUnmap {
			p.eagerResolveStale(pp, f)
		}
	}
	e := p.pt.lookup(arch.KernelSpace, wvpn)
	e.modified = true
	if pp.uncached {
		e.uncached = true
		e.prot = arch.ProtReadWrite
	}
	p.m.InvalidateTLB(arch.KernelSpace, wvpn)
	p.noteFrameWritten(pp)
	return wvpn
}

// prepareRead maps frame f at a window for reading. With aligned
// preparation the window aligns with wherever the frame's data already
// sits in the cache (its dirty or mapped color), avoiding a flush — but
// never with `avoid` (the copy destination's color): source and
// destination windows of the same color would evict each other line by
// line in the direct-mapped cache, and one flush is far cheaper than a
// whole page of ping-pong misses.
func (p *Pmap) prepareRead(f arch.PFN, avoid arch.CachePage) arch.VPN {
	pp := &p.phys[f]
	var color arch.CachePage
	switch {
	case !p.feat.AlignedPrepare:
		color = p.prepColor(NoVPN)
	case pp.state.CacheDirty:
		color = pp.state.DirtyCachePage()
	case pp.state.Mapped != 0:
		color = pp.state.Mapped.First()
	default:
		color = p.prepColor(NoVPN)
	}
	if color == avoid {
		color = arch.CachePage((uint64(color) + 1) % p.dColors)
	}
	wvpn := p.windows.acquire(color)
	p.Enter(arch.KernelSpace, wvpn, f, arch.ProtReadWrite, KindWindow)
	if !pp.uncached {
		p.observe(core.CPURead, f, p.dcolor(wvpn))
		p.control(f, p.dcolor(wvpn), core.CPURead, core.Options{NeedData: true}, false, false)
		if !p.feat.LazyUnmap {
			p.eagerResolveStale(pp, f)
		}
	} else {
		e := p.pt.lookup(arch.KernelSpace, wvpn)
		e.uncached = true
		e.prot = arch.ProtRead
		p.m.InvalidateTLB(arch.KernelSpace, wvpn)
	}
	return wvpn
}

// releaseWindow unmaps a preparation window (eagerly cleaning the cache
// under the original policy, lazily otherwise) and returns it to the
// pool.
func (p *Pmap) releaseWindow(wvpn arch.VPN) {
	p.Remove(arch.KernelSpace, wvpn)
	p.windows.release(wvpn)
}

// ZeroPage fills frame f with zeros through a kernel window.
// eventualVPN, when known, is the virtual page the frame will be mapped
// at, so an aligned window leaves the zeroed data exactly where the
// consumer will look for it.
func (p *Pmap) ZeroPage(f arch.PFN, eventualVPN arch.VPN) error {
	p.stats.ZeroFills++
	p.emit(trace.EvPrepare, f, arch.NoCachePage, "zero")
	wvpn := p.prepareWrite(f, p.prepColor(eventualVPN))
	base := p.geom.PageBase(wvpn)
	// Fast path: the consistency work is already hoisted (prepareWrite
	// ran CacheControl once for the whole page), so the word loop is
	// pure data movement the machine can perform in bulk, traced or not
	// (only the first word can fault). Uncached frames keep the
	// reference loop; the machine applies its own guards (cache variant)
	// and reports how much it handled.
	start := uint64(0)
	if !p.phys[f].uncached {
		n, err := p.m.BulkZeroPage(arch.KernelSpace, base)
		if err != nil {
			return fmt.Errorf("pmap: zero-fill frame %d: %w", f, err)
		}
		start = n
	}
	for i := start; i < p.geom.WordsPerPage(); i++ {
		if err := p.m.Write(arch.KernelSpace, base+arch.VA(i*arch.WordSize), 0); err != nil {
			return fmt.Errorf("pmap: zero-fill frame %d: %w", f, err)
		}
	}
	p.releaseWindow(wvpn)
	return nil
}

// CopyPage copies frame src to frame dst through kernel windows.
// eventualVPN is the destination's eventual mapping, for alignment.
func (p *Pmap) CopyPage(src, dst arch.PFN, eventualVPN arch.VPN) error {
	p.stats.PageCopies++
	p.emit(trace.EvPrepare, dst, arch.NoCachePage, "copy")
	if src == dst {
		return fmt.Errorf("pmap: copy frame %d onto itself", src)
	}
	dstColor := p.prepColor(eventualVPN)
	svpn := p.prepareRead(src, dstColor)
	dvpn := p.prepareWrite(dst, dstColor)
	sbase := p.geom.PageBase(svpn)
	dbase := p.geom.PageBase(dvpn)
	// Fast path, as in ZeroPage: consistency work is done, the loop is
	// data movement. The machine falls back (returning how many words it
	// performed) when its guards fail.
	start := uint64(0)
	if !p.phys[src].uncached && !p.phys[dst].uncached {
		n, err := p.m.BulkCopyPage(arch.KernelSpace, sbase, arch.KernelSpace, dbase)
		if err != nil {
			if n == 0 {
				return fmt.Errorf("pmap: copy read frame %d: %w", src, err)
			}
			return fmt.Errorf("pmap: copy write frame %d: %w", dst, err)
		}
		start = n
	}
	for i := start; i < p.geom.WordsPerPage(); i++ {
		off := arch.VA(i * arch.WordSize)
		v, err := p.m.Read(arch.KernelSpace, sbase+off)
		if err != nil {
			return fmt.Errorf("pmap: copy read frame %d: %w", src, err)
		}
		if err := p.m.Write(arch.KernelSpace, dbase+off, v); err != nil {
			return fmt.Errorf("pmap: copy write frame %d: %w", dst, err)
		}
	}
	p.releaseWindow(dvpn)
	p.releaseWindow(svpn)
	return nil
}

// CopyToText performs the data-to-instruction-space copy of a text
// fault: the file system copies the faulted page from its buffer cache
// (src) into the process text frame (dst), which was written through the
// data cache yet will be consumed by the instruction cache. The frame
// must therefore be flushed from the data cache, and the destination
// instruction-cache page purged unless it is empty. This cost exists
// with physically indexed caches as well — dual caches effectively
// create an aliasing problem.
func (p *Pmap) CopyToText(src, dst arch.PFN, textVPN arch.VPN) error {
	if err := p.CopyPage(src, dst, textVPN); err != nil {
		return err
	}
	pp := &p.phys[dst]
	if pp.state.CacheDirty {
		w := pp.state.DirtyCachePage()
		p.FlushCachePage(w, dst)
		pp.state.CacheDirty = false
		p.ClearModified(dst, w)
		p.stats.DToICopies++
	}
	ic := p.icolor(textVPN)
	if pp.iMapped.Get(ic) || pp.iStale.Get(ic) {
		p.purgeICachePage(ic, dst)
		pp.iMapped.Clear(ic)
		pp.iStale.Clear(ic)
	}
	return nil
}
