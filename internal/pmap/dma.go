package pmap

import (
	"vcache/internal/arch"
	"vcache/internal/core"
	"vcache/internal/trace"
)

// DMA preparation. The operating system must invoke the consistency
// algorithm before scheduling DMA operations (Section 4.1): before a
// DMA-write it must ensure the physical addresses written by the device
// will not be clobbered by previously dirtied data still in the cache,
// and that old cached data will not shadow the device's new data; before
// a DMA-read it must ensure the data being read has reached memory.

// PrepareDMAWrite readies frame f to receive a device-to-memory
// transfer: a dirty cache page is purged (not flushed — the DMA data
// overwrites memory anyway), and every mapped cache page becomes stale
// so that subsequent CPU accesses trap and purge the shadowing data.
func (p *Pmap) PrepareDMAWrite(f arch.PFN) {
	pp := &p.phys[f]
	p.emit(trace.EvDMAPrep, f, arch.NoCachePage, "write")
	if pp.uncached {
		return
	}
	p.observe(core.DMAWrite, f, arch.NoCachePage)
	p.control(f, arch.NoCachePage, core.DMAWrite, core.Options{NeedData: false}, false, false)
	p.noteFrameWritten(pp)
	if !p.feat.LazyUnmap {
		p.eagerResolveStale(pp, f)
	}
}

// PrepareDMARead readies frame f for a memory-to-device transfer: a
// dirty cache page is flushed so the device reads current data.
func (p *Pmap) PrepareDMARead(f arch.PFN) {
	pp := &p.phys[f]
	p.emit(trace.EvDMAPrep, f, arch.NoCachePage, "read")
	if pp.uncached {
		return
	}
	p.observe(core.DMARead, f, arch.NoCachePage)
	p.control(f, arch.NoCachePage, core.DMARead, core.Options{NeedData: true}, false, false)
}
