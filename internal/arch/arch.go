// Package arch defines the address types and machine geometry shared by
// every layer of the simulator: virtual and physical addresses, page and
// frame numbers, cache pages (colors), and page protections.
//
// The geometry mirrors the HP 9000 Series 700 (Model 720) that the paper
// evaluates: a direct-mapped, virtually indexed, physically tagged,
// write-back data cache whose size is a multiple of the page size, so that
// a virtual page maps onto a whole "cache page" of lines, and two virtual
// pages align if and only if they select the same cache page.
package arch

import (
	"fmt"
	"math/bits"
)

// VA is a virtual address. Virtual addresses are interpreted per address
// space; the cache index function uses only the VA bits (as on PA-RISC,
// where the space identifier does not participate in cache indexing), so
// the same VA in two spaces selects the same cache lines.
type VA uint64

// PA is a physical address.
type PA uint64

// VPN is a virtual page number (VA / PageSize).
type VPN uint64

// PFN is a physical frame number (PA / PageSize).
type PFN uint64

// SpaceID names an address space. Space 0 is the kernel.
type SpaceID uint32

// KernelSpace is the address space the kernel runs in.
const KernelSpace SpaceID = 0

// CachePage identifies one page-sized slice of a cache: the set of lines
// onto which the index function maps all addresses of any virtual page
// whose page number is congruent to it. Two virtual pages "align" when
// they have equal CachePage values. It is often called a page color.
type CachePage uint32

// NoCachePage is used where an operation has no target cache page
// (DMA operations address physical memory directly).
const NoCachePage CachePage = ^CachePage(0)

// Prot is a page protection as used by the consistency algorithm.
type Prot uint8

const (
	// ProtNone denies all access (the paper's W0_ACCESS): any CPU
	// reference traps so the consistency state can be updated.
	ProtNone Prot = iota
	// ProtRead allows reads only; the first write traps.
	ProtRead
	// ProtReadWrite allows reads and writes.
	ProtReadWrite
)

func (p Prot) String() string {
	switch p {
	case ProtNone:
		return "none"
	case ProtRead:
		return "read-only"
	case ProtReadWrite:
		return "read-write"
	default:
		return fmt.Sprintf("Prot(%d)", uint8(p))
	}
}

// CanRead reports whether the protection permits a CPU read.
func (p Prot) CanRead() bool { return p == ProtRead || p == ProtReadWrite }

// CanWrite reports whether the protection permits a CPU write.
func (p Prot) CanWrite() bool { return p == ProtReadWrite }

// WordSize is the size in bytes of the unit the simulated CPU reads and
// writes. All simulated accesses are word-aligned whole words.
const WordSize = 8

// Geometry fixes the page and cache shape of a simulated machine.
// All sizes are in bytes and must be powers of two, with
// LineSize <= PageSize <= DCacheSize and PageSize <= ICacheSize.
type Geometry struct {
	PageSize   uint64 // bytes per virtual page / physical frame
	LineSize   uint64 // bytes per cache line
	DCacheSize uint64 // data cache capacity
	ICacheSize uint64 // instruction cache capacity
}

// HP720 is the geometry of the machine the paper measures: 4 KiB pages,
// 32-byte lines, 256 KiB data cache (64 cache pages) and 128 KiB
// instruction cache (32 cache pages).
func HP720() Geometry {
	return Geometry{
		PageSize:   4096,
		LineSize:   32,
		DCacheSize: 256 * 1024,
		ICacheSize: 128 * 1024,
	}
}

// Validate reports an error if the geometry is not internally consistent.
func (g Geometry) Validate() error {
	for _, v := range []struct {
		name string
		n    uint64
	}{
		{"PageSize", g.PageSize},
		{"LineSize", g.LineSize},
		{"DCacheSize", g.DCacheSize},
		{"ICacheSize", g.ICacheSize},
	} {
		if v.n == 0 || v.n&(v.n-1) != 0 {
			return fmt.Errorf("arch: %s (%d) must be a nonzero power of two", v.name, v.n)
		}
	}
	if g.LineSize < WordSize {
		return fmt.Errorf("arch: LineSize (%d) smaller than word size (%d)", g.LineSize, WordSize)
	}
	if g.LineSize > g.PageSize {
		return fmt.Errorf("arch: LineSize (%d) exceeds PageSize (%d)", g.LineSize, g.PageSize)
	}
	if g.PageSize > g.DCacheSize {
		return fmt.Errorf("arch: PageSize (%d) exceeds DCacheSize (%d)", g.PageSize, g.DCacheSize)
	}
	if g.PageSize > g.ICacheSize {
		return fmt.Errorf("arch: PageSize (%d) exceeds ICacheSize (%d)", g.PageSize, g.ICacheSize)
	}
	if g.DCachePages() > 64 || g.ICachePages() > 64 {
		// The consistency state uses one 64-bit vector per physical
		// page (as in the paper's implementation, which had 64 data
		// cache pages on the 720).
		return fmt.Errorf("arch: more than 64 cache pages is unsupported")
	}
	return nil
}

// WordsPerPage is the number of CPU words in one page.
func (g Geometry) WordsPerPage() uint64 { return g.PageSize / WordSize }

// WordsPerLine is the number of CPU words in one cache line.
func (g Geometry) WordsPerLine() uint64 { return g.LineSize / WordSize }

// LinesPerPage is the number of cache lines covering one page.
func (g Geometry) LinesPerPage() uint64 { return g.PageSize / g.LineSize }

// DCachePages is the number of cache pages in the data cache.
func (g Geometry) DCachePages() uint64 { return g.DCacheSize / g.PageSize }

// ICachePages is the number of cache pages in the instruction cache.
func (g Geometry) ICachePages() uint64 { return g.ICacheSize / g.PageSize }

// pageShift is log2(PageSize). The page-number conversions below shift
// instead of dividing; they rely on PageSize being a power of two, which
// Validate enforces (machine.New and mem.New both call it).
func (g Geometry) pageShift() int { return bits.TrailingZeros64(g.PageSize) }

// PageOf returns the virtual page number containing va.
func (g Geometry) PageOf(va VA) VPN { return VPN(uint64(va) >> g.pageShift()) }

// FrameOf returns the physical frame number containing pa.
func (g Geometry) FrameOf(pa PA) PFN { return PFN(uint64(pa) >> g.pageShift()) }

// PageBase returns the first virtual address of page vpn.
func (g Geometry) PageBase(vpn VPN) VA { return VA(uint64(vpn) << g.pageShift()) }

// FrameBase returns the first physical address of frame pfn.
func (g Geometry) FrameBase(pfn PFN) PA { return PA(uint64(pfn) << g.pageShift()) }

// PageOffset returns the offset of va within its page.
func (g Geometry) PageOffset(va VA) uint64 { return uint64(va) & (g.PageSize - 1) }

// Translate composes a frame with the page offset of va.
func (g Geometry) Translate(va VA, pfn PFN) PA {
	return g.FrameBase(pfn) + PA(g.PageOffset(va))
}

// DCachePageOf returns the data-cache page (color) that virtual address
// va's page maps onto.
func (g Geometry) DCachePageOf(va VA) CachePage {
	return CachePage(uint64(g.PageOf(va)) % g.DCachePages())
}

// ICachePageOf returns the instruction-cache page that va's page maps onto.
func (g Geometry) ICachePageOf(va VA) CachePage {
	return CachePage(uint64(g.PageOf(va)) % g.ICachePages())
}

// DColorOfVPN returns the data-cache color of a virtual page number.
func (g Geometry) DColorOfVPN(vpn VPN) CachePage {
	return CachePage(uint64(vpn) % g.DCachePages())
}

// Aligned reports whether two virtual addresses align in the data cache,
// i.e. whether their pages map onto the same cache page.
func (g Geometry) Aligned(a, b VA) bool { return g.DCachePageOf(a) == g.DCachePageOf(b) }
