// Package fs implements a flat file system over the DMA disk, fronted by
// a buffer cache with a write-behind policy.
//
// The buffer cache is the Unix server's: file reads that hit it cost no
// disk access (the paper's first two benchmarks perform no disk reads at
// all for this reason), and dirty buffers are written back with a delay,
// so by the time a DMA-read flush happens most dirty lines have already
// been written back naturally by cache replacement — which is why the
// paper measures such low cycle counts for DMA-read flushes.
//
// Buffers live in permanently mapped kernel pages; all CPU access to
// file data goes through those mappings (and therefore through the
// simulated cache and the consistency machinery).
package fs

import (
	"fmt"
	"slices"

	"vcache/internal/arch"
	"vcache/internal/dma"
	"vcache/internal/machine"
	"vcache/internal/mem"
	"vcache/internal/pmap"
)

// bufferBaseVPN is the first kernel virtual page of the buffer pool.
// Multiple of 64 so buffer colors are slot mod colors.
const bufferBaseVPN arch.VPN = 0xA0000

// File is a named sequence of disk blocks, one page each.
type File struct {
	Name   string
	blocks []dma.BlockID
}

// Pages returns the file length in pages.
func (f *File) Pages() uint64 { return uint64(len(f.blocks)) }

type Buffer struct {
	slot  int
	vpn   arch.VPN
	frame arch.PFN
	file  *File
	page  uint64
	valid bool
	dirty bool
	// dirtiedAt is the op tick when the buffer was first dirtied,
	// driving write-behind.
	dirtiedAt uint64
	lastUse   uint64
}

// Stats counts file-system activity.
type Stats struct {
	Hits        uint64 // buffer-cache hits
	Misses      uint64 // buffer-cache misses (disk reads)
	WriteBehind uint64 // delayed buffer write-backs
	Evictions   uint64
}

// Config sizes the file system.
type Config struct {
	// Buffers is the number of buffer-cache slots.
	Buffers int
	// WriteBehindDelay is how many buffer operations a dirty buffer
	// ages before being written to disk.
	WriteBehindDelay uint64
}

// DefaultConfig returns a small but realistic buffer cache.
func DefaultConfig() Config {
	return Config{Buffers: 96, WriteBehindDelay: 64}
}

// FileSystem is the flat file system.
type FileSystem struct {
	cfg   Config
	m     *machine.Machine
	pm    *pmap.Pmap
	disk  *dma.Disk
	geom  arch.Geometry
	files map[string]*File
	bufs  []Buffer
	index map[bufKey]*Buffer
	tick  uint64
	stats Stats
}

type bufKey struct {
	file *File
	page uint64
}

// New creates a file system, allocating and mapping the buffer pool.
func New(m *machine.Machine, pm *pmap.Pmap, disk *dma.Disk, cfg Config) (*FileSystem, error) {
	if cfg.Buffers <= 0 {
		return nil, fmt.Errorf("fs: buffer count must be positive")
	}
	fs := &FileSystem{
		cfg:   cfg,
		m:     m,
		pm:    pm,
		disk:  disk,
		geom:  m.Geom,
		files: make(map[string]*File),
		index: make(map[bufKey]*Buffer),
	}
	for i := 0; i < cfg.Buffers; i++ {
		f, err := pm.AllocFrame(arch.NoCachePage)
		if err != nil {
			return nil, fmt.Errorf("fs: buffer pool: %w", err)
		}
		vpn := bufferBaseVPN + arch.VPN(i)
		pm.Enter(arch.KernelSpace, vpn, f, arch.ProtReadWrite, pmap.KindBuffer)
		fs.bufs = append(fs.bufs, Buffer{slot: i, vpn: vpn, frame: f})
	}
	return fs, nil
}

// Clone returns an independent copy of the file system wired to a
// forked machine, pmap and disk (snapshot/fork support), plus the
// old-File → new-File map so pagers holding file references can be
// rebound. The buffer pool's frames were allocated and entered into the
// pmap at boot; the cloned pmap already carries those mappings, so the
// clone copies the buffer records as-is — re-entering them would
// double-map. The Files, their block lists and the Buffers each land
// in one backing array.
func (fs *FileSystem) Clone(m2 *machine.Machine, pm2 *pmap.Pmap, disk2 *dma.Disk) (*FileSystem, map[*File]*File) {
	fs2 := &FileSystem{
		cfg:   fs.cfg,
		m:     m2,
		pm:    pm2,
		disk:  disk2,
		geom:  fs.geom,
		files: make(map[string]*File, len(fs.files)),
		index: make(map[bufKey]*Buffer, len(fs.index)),
		tick:  fs.tick,
		stats: fs.stats,
	}
	fileMap := make(map[*File]*File, len(fs.files))
	files := make([]File, 0, len(fs.files))
	for _, f := range fs.files {
		files = append(files, *f)
	}
	mem.CopyLists(files, func(f *File) *[]dma.BlockID { return &f.blocks })
	for i := range files {
		f2 := &files[i]
		fs2.files[f2.Name] = f2
		fileMap[fs.files[f2.Name]] = f2
	}
	fs2.bufs = slices.Clone(fs.bufs)
	for i := range fs2.bufs {
		b2 := &fs2.bufs[i]
		if b2.file != nil {
			b2.file = fileMap[b2.file]
		}
		if b2.valid {
			fs2.index[bufKey{b2.file, b2.page}] = b2
		}
	}
	return fs2, fileMap
}

// Stats returns a snapshot of the counters.
func (fs *FileSystem) Stats() Stats { return fs.stats }

// Disk returns the underlying device (for test inspection).
func (fs *FileSystem) Disk() *dma.Disk { return fs.disk }

// Create makes a new empty file; it errors if the name exists.
func (fs *FileSystem) Create(name string) (*File, error) {
	if _, ok := fs.files[name]; ok {
		return nil, fmt.Errorf("fs: %q exists", name)
	}
	f := &File{Name: name}
	fs.files[name] = f
	return f, nil
}

// Open returns an existing file.
func (fs *FileSystem) Open(name string) (*File, error) {
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("fs: %q does not exist", name)
	}
	return f, nil
}

// Remove deletes a file, invalidating its buffers.
func (fs *FileSystem) Remove(name string) error {
	f, ok := fs.files[name]
	if !ok {
		return fmt.Errorf("fs: %q does not exist", name)
	}
	for i := range fs.bufs {
		if b := &fs.bufs[i]; b.valid && b.file == f {
			delete(fs.index, bufKey{b.file, b.page})
			b.valid = false
			b.dirty = false
			b.file = nil
		}
	}
	delete(fs.files, name)
	return nil
}

// Extend grows a file to at least n pages.
func (fs *FileSystem) Extend(f *File, n uint64) {
	for uint64(len(f.blocks)) < n {
		f.blocks = append(f.blocks, fs.disk.AllocBlock())
	}
}

// GetBuffer returns the buffer holding page `page` of file f, reading it
// from disk on a miss (allocate extends the file instead of reading when
// the page is being created). Every call ages the write-behind queue.
func (fs *FileSystem) GetBuffer(f *File, page uint64, allocate bool) (*Buffer, error) {
	fs.tick++
	defer fs.ageWriteBehind()

	if b, ok := fs.index[bufKey{f, page}]; ok {
		fs.stats.Hits++
		b.lastUse = fs.tick
		return b, nil
	}
	fs.stats.Misses++
	if page >= f.Pages() {
		if !allocate {
			return nil, fmt.Errorf("fs: read past end of %q (page %d of %d)", f.Name, page, f.Pages())
		}
		fs.Extend(f, page+1)
	}
	b, err := fs.evictOne()
	if err != nil {
		return nil, err
	}
	b.file, b.page, b.valid = f, page, true
	b.dirty = false
	b.lastUse = fs.tick
	fs.index[bufKey{f, page}] = b
	if !allocate {
		// Disk read: a DMA-write into the buffer frame. The kernel
		// prepares the frame so cached data cannot shadow or clobber
		// the device's data.
		fs.pm.PrepareDMAWrite(b.frame)
		if err := fs.disk.ReadBlock(f.blocks[page], b.frame); err != nil {
			return nil, err
		}
	} else {
		// Fresh page: zero the buffer through its kernel mapping.
		if err := fs.zeroBuffer(b); err != nil {
			return nil, err
		}
		b.dirty = true
		b.dirtiedAt = fs.tick
	}
	return b, nil
}

// evictOne finds a reusable buffer slot, writing back the LRU victim if
// dirty.
func (fs *FileSystem) evictOne() (*Buffer, error) {
	var victim *Buffer
	for i := range fs.bufs {
		b := &fs.bufs[i]
		if !b.valid {
			return b, nil
		}
		if victim == nil || b.lastUse < victim.lastUse {
			victim = b
		}
	}
	fs.stats.Evictions++
	if victim.dirty {
		if err := fs.writeBack(victim); err != nil {
			return nil, err
		}
	}
	delete(fs.index, bufKey{victim.file, victim.page})
	victim.valid = false
	victim.file = nil
	return victim, nil
}

// writeBack flushes one dirty buffer to disk (a DMA-read of the frame).
func (fs *FileSystem) writeBack(b *Buffer) error {
	fs.pm.PrepareDMARead(b.frame)
	if err := fs.disk.WriteBlock(b.file.blocks[b.page], b.frame); err != nil {
		return err
	}
	b.dirty = false
	return nil
}

// ageWriteBehind writes back dirty buffers older than the configured
// delay — the file system's write-behind policy.
func (fs *FileSystem) ageWriteBehind() {
	for i := range fs.bufs {
		if b := &fs.bufs[i]; b.valid && b.dirty && fs.tick-b.dirtiedAt >= fs.cfg.WriteBehindDelay {
			if err := fs.writeBack(b); err == nil {
				fs.stats.WriteBehind++
			}
		}
	}
}

// Sync writes back every dirty buffer.
func (fs *FileSystem) Sync() error {
	for i := range fs.bufs {
		if b := &fs.bufs[i]; b.valid && b.dirty {
			if err := fs.writeBack(b); err != nil {
				return err
			}
		}
	}
	return nil
}

// MarkDirty records a CPU write into the buffer for write-behind aging.
func (fs *FileSystem) MarkDirty(b *Buffer) {
	if !b.dirty {
		b.dirty = true
		b.dirtiedAt = fs.tick
	}
}

// VA returns the kernel virtual address of word i of the buffer.
func (fs *FileSystem) VA(b *Buffer, word uint64) arch.VA {
	return fs.geom.PageBase(b.vpn) + arch.VA(word*arch.WordSize)
}

// Frame returns the physical frame of a buffer (used by the text pager).
func (fs *FileSystem) Frame(b *Buffer) arch.PFN { return b.frame }

// zeroBuffer zeroes a buffer through its kernel mapping, in bulk where
// the machine's guards allow and word by word for the rest.
func (fs *FileSystem) zeroBuffer(b *Buffer) error {
	i, err := fs.m.BulkZeroPage(arch.KernelSpace, fs.VA(b, 0))
	if err != nil {
		return err
	}
	for ; i < fs.geom.WordsPerPage(); i++ {
		if err := fs.m.Write(arch.KernelSpace, fs.VA(b, i), 0); err != nil {
			return err
		}
	}
	return nil
}

// ResetStats zeroes the file-system counters.
func (fs *FileSystem) ResetStats() { fs.stats = Stats{} }

// ReadBlockInto transfers page `page` of file f by DMA directly into an
// arbitrary physical frame, bypassing the buffer cache — the demand-
// paging / raw-I/O path. Any buffered copy of the block is written back
// (if dirty) and dropped first so the device reads current data and the
// cache holds no duplicate. The caller's frame is prepared for the
// DMA-write, which is where DMA-write purges of dirty user pages come
// from.
func (fs *FileSystem) ReadBlockInto(f *File, page uint64, frame arch.PFN) error {
	if page >= f.Pages() {
		return fmt.Errorf("fs: direct read past end of %q (page %d of %d)", f.Name, page, f.Pages())
	}
	if b, ok := fs.index[bufKey{f, page}]; ok {
		if b.dirty {
			if err := fs.writeBack(b); err != nil {
				return err
			}
		}
		delete(fs.index, bufKey{b.file, b.page})
		b.valid = false
		b.file = nil
	}
	fs.pm.PrepareDMAWrite(frame)
	return fs.disk.ReadBlock(f.blocks[page], frame)
}
