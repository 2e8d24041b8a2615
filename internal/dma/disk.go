// Package dma models the DMA-based I/O devices of the simulated machine.
//
// The only device the benchmarks need is a disk. Transfers move whole
// page-sized blocks between device storage and physical memory through
// the machine's DMA port, which bypasses the caches — the device sees
// only what is in memory, never what is in the cache, exactly the
// consistency hazard of Section 2.4. The kernel must run the consistency
// algorithm (pmap.PrepareDMAWrite / PrepareDMARead) before scheduling a
// transfer; the disk itself performs no cache management.
package dma

import (
	"fmt"
	"slices"

	"vcache/internal/arch"
	"vcache/internal/machine"
	"vcache/internal/sim"
)

// BlockID names one disk block (one page-sized unit).
type BlockID uint64

// Stats counts disk activity.
type Stats struct {
	Reads  uint64 // disk reads = DMA-writes into memory
	Writes uint64 // disk writes = DMA-reads out of memory
}

// Disk is a block device transferring whole pages by DMA.
type Disk struct {
	m    *machine.Machine
	geom arch.Geometry
	// blocks holds block contents by BlockID; IDs are never freed. A
	// block never written is nil and reads as zero.
	blocks [][]uint64
	zero   []uint64 // one page of zeros, never written
	stats  Stats
}

// NewDisk creates an empty disk attached to machine m.
func NewDisk(m *machine.Machine) *Disk {
	return &Disk{m: m, geom: m.Geom, zero: make([]uint64, m.Geom.WordsPerPage())}
}

// Stats returns a snapshot of the counters.
func (d *Disk) Stats() Stats { return d.stats }

// Clone returns an independent copy of the disk attached to forked
// machine m2 (snapshot/fork support). Block contents are shared, not
// copied: the disk never mutates a block slice in place — WriteBlock
// replaces the whole slice with the fresh one DMARead returns — so
// sharing is safe and a snapshot's disk image costs only the block list.
func (d *Disk) Clone(m2 *machine.Machine) *Disk {
	d2 := *d
	d2.m = m2
	d2.blocks = slices.Clone(d.blocks)
	return &d2
}

// AllocBlock reserves a fresh, zeroed block.
func (d *Disk) AllocBlock() BlockID {
	d.blocks = append(d.blocks, nil)
	return BlockID(len(d.blocks) - 1)
}

// block returns block b's content, or ok=false if b was never allocated.
func (d *Disk) block(b BlockID) (data []uint64, ok bool) {
	if b >= BlockID(len(d.blocks)) {
		return nil, false
	}
	if data = d.blocks[b]; data == nil {
		data = d.zero
	}
	return data, true
}

// ReadBlock transfers block b from the disk into frame f by DMA
// (a DMA-write from the memory system's point of view). The caller must
// have prepared the frame with pmap.PrepareDMAWrite.
func (d *Disk) ReadBlock(b BlockID, f arch.PFN) error {
	data, ok := d.block(b)
	if !ok {
		return fmt.Errorf("dma: read of unallocated block %d", b)
	}
	d.stats.Reads++
	d.m.Clock.Charge(sim.CatDMA, d.m.Clock.Timing().DiskAccess)
	d.m.DMAWrite(d.geom.FrameBase(f), data)
	return nil
}

// WriteBlock transfers frame f to block b by DMA (a DMA-read from the
// memory system's point of view). The caller must have prepared the
// frame with pmap.PrepareDMARead so dirty cache data reaches memory
// first.
func (d *Disk) WriteBlock(b BlockID, f arch.PFN) error {
	if b >= BlockID(len(d.blocks)) {
		return fmt.Errorf("dma: write of unallocated block %d", b)
	}
	d.stats.Writes++
	d.m.Clock.Charge(sim.CatDMA, d.m.Clock.Timing().DiskAccess)
	d.blocks[b] = d.m.DMARead(d.geom.FrameBase(f), int(d.geom.WordsPerPage()))
	return nil
}

// Peek returns a copy of a block's current content (tests only).
func (d *Disk) Peek(b BlockID) ([]uint64, bool) {
	data, ok := d.block(b)
	return slices.Clone(data), ok
}

// ResetStats zeroes the disk counters.
func (d *Disk) ResetStats() { d.stats = Stats{} }
