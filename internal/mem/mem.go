// Package mem implements the simulated physical memory and the physical
// frame allocator.
//
// Memory is word-granular (arch.WordSize bytes per word) and is the only
// backing store in the machine: the caches fill from it and write back to
// it, and DMA devices read and write it directly. Nothing in this package
// maintains consistency — producing a memory system that can hold stale
// data is precisely the point of the simulation.
//
// Memory is stored as one page-sized word slice per physical frame so
// that the whole image can be forked copy-on-write: Fork shares every
// page between parent and child and the first write to a shared page
// privatizes just that page. A forked machine therefore costs O(dirtied
// pages), not O(memory) — the mechanism behind kernel snapshots and the
// harness's warm-boot path. A page is allocated on its first write and
// reads as zero until then, so a machine costs O(written pages) to boot.
//
// The allocator supports two modes mirroring the paper's Section 5.1
// discussion: a single free list (frames come back in effectively random
// cache colors, which is what makes new-mapping purges so frequent), and
// per-color free lists ("multiple free page lists" reducing the
// associativity of virtual-to-physical mappings).
package mem

import (
	"fmt"
	"math/bits"

	"vcache/internal/arch"
)

// Memory is the simulated physical memory.
type Memory struct {
	geom   arch.Geometry
	nwords uint64
	wshift uint // log2(words per page)
	wmask  uint64

	// pages holds one word slice per physical frame, nil until the
	// frame's first write. owned[i] reports whether this Memory may write
	// pages[i] in place; a page inherited from a Fork is shared
	// (owned=false) until the first write copies it. frozen marks a
	// snapshot image: Fork leaves a frozen parent untouched, so any
	// number of forks may be taken concurrently.
	pages  [][]uint64
	owned  []bool
	frozen bool
}

// New creates a physical memory of the given number of frames.
func New(geom arch.Geometry, frames int) (*Memory, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	if frames <= 0 {
		return nil, fmt.Errorf("mem: frame count must be positive, got %d", frames)
	}
	wpp := geom.WordsPerPage()
	return &Memory{
		geom:   geom,
		nwords: uint64(frames) * wpp,
		wshift: uint(bits.TrailingZeros64(wpp)),
		wmask:  wpp - 1,
		pages:  make([][]uint64, frames),
		owned:  make([]bool, frames),
	}, nil
}

// Frames returns the number of physical frames.
func (m *Memory) Frames() int { return len(m.pages) }

// Geometry returns the machine geometry.
func (m *Memory) Geometry() arch.Geometry { return m.geom }

func (m *Memory) wordIndex(pa arch.PA) uint64 {
	idx := uint64(pa) / arch.WordSize
	if idx >= m.nwords {
		panic(fmt.Sprintf("mem: physical address %#x out of range", uint64(pa)))
	}
	return idx
}

// privatize makes page pg writable by this Memory, copying it first if
// it is still shared with a fork parent or sibling, or allocating it
// zeroed on its first write.
func (m *Memory) privatize(pg uint64) {
	if m.owned[pg] {
		return
	}
	private := make([]uint64, m.wmask+1)
	copy(private, m.pages[pg])
	m.pages[pg] = private
	m.owned[pg] = true
}

// Fork returns a copy-on-write child sharing every page with m. The
// child is independently writable: its first write to a page gets a
// private copy. Forking an unfrozen parent drops the parent's ownership
// of every page (the parent, too, copies on its next write); a frozen
// parent (see Freeze) is not modified at all, which is what makes
// concurrent forks from one shared snapshot safe.
func (m *Memory) Fork() *Memory {
	child := &Memory{
		geom:   m.geom,
		nwords: m.nwords,
		wshift: m.wshift,
		wmask:  m.wmask,
		pages:  append([][]uint64(nil), m.pages...),
		owned:  make([]bool, len(m.pages)),
	}
	if !m.frozen {
		for i := range m.owned {
			m.owned[i] = false
		}
	}
	return child
}

// Freeze marks the memory as an immutable snapshot image: Fork no longer
// mutates it, so forks may be taken from it concurrently. The caller
// must not write a frozen memory (the snapshot kernel is never run).
func (m *Memory) Freeze() { m.frozen = true }

// SharedPages reports how many written pages are still shared with a
// fork parent or sibling (not privately owned) — the complement of the
// fork's copy-on-write cost so far.
func (m *Memory) SharedPages() int {
	n := 0
	for i, o := range m.owned {
		if !o && m.pages[i] != nil {
			n++
		}
	}
	return n
}

// Bytes returns the logical size of the memory image in bytes.
func (m *Memory) Bytes() int64 { return int64(m.nwords) * arch.WordSize }

// ReadWord returns the word at physical address pa (word-aligned).
func (m *Memory) ReadWord(pa arch.PA) uint64 {
	idx := m.wordIndex(pa)
	if pg := m.pages[idx>>m.wshift]; pg != nil {
		return pg[idx&m.wmask]
	}
	return 0
}

// WriteWord stores v at physical address pa (word-aligned).
func (m *Memory) WriteWord(pa arch.PA, v uint64) {
	idx := m.wordIndex(pa)
	pg := idx >> m.wshift
	m.privatize(pg)
	m.pages[pg][idx&m.wmask] = v
}

// ReadLine copies the cache line starting at pa into dst. Lines are
// line-aligned and line size divides page size, so a line never crosses
// a page boundary.
func (m *Memory) ReadLine(pa arch.PA, dst []uint64) {
	idx := m.wordIndex(pa)
	off := idx & m.wmask
	if pg := m.pages[idx>>m.wshift]; pg != nil {
		copy(dst, pg[off:off+uint64(len(dst))])
	} else {
		clear(dst)
	}
}

// WriteLine stores the cache line src starting at physical address pa.
func (m *Memory) WriteLine(pa arch.PA, src []uint64) {
	idx := m.wordIndex(pa)
	pg := idx >> m.wshift
	m.privatize(pg)
	off := idx & m.wmask
	copy(m.pages[pg][off:off+uint64(len(src))], src)
}

// ReadWords copies len(dst) consecutive words starting at pa into dst —
// the bulk DMA path's word loop as slice copies, chunked per page (a DMA
// transfer may cross frame boundaries).
func (m *Memory) ReadWords(pa arch.PA, dst []uint64) {
	idx := m.wordIndex(pa)
	for len(dst) > 0 {
		pg, off := idx>>m.wshift, idx&m.wmask
		n := m.wmask + 1 - off
		if n > uint64(len(dst)) {
			n = uint64(len(dst))
		}
		if page := m.pages[pg]; page != nil {
			copy(dst[:n], page[off:off+n])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		idx += n
		if len(dst) > 0 && idx >= m.nwords {
			panic(fmt.Sprintf("mem: physical address %#x out of range", idx*arch.WordSize))
		}
	}
}

// WriteWords stores src at consecutive words starting at pa.
func (m *Memory) WriteWords(pa arch.PA, src []uint64) {
	idx := m.wordIndex(pa)
	for len(src) > 0 {
		pg, off := idx>>m.wshift, idx&m.wmask
		m.privatize(pg)
		n := m.wmask + 1 - off
		if n > uint64(len(src)) {
			n = uint64(len(src))
		}
		copy(m.pages[pg][off:off+n], src[:n])
		src = src[n:]
		idx += n
		if len(src) > 0 && idx >= m.nwords {
			panic(fmt.Sprintf("mem: physical address %#x out of range", idx*arch.WordSize))
		}
	}
}
