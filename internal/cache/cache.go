// Package cache implements the simulated processor caches.
//
// The primary model is the one the paper targets: a direct-mapped,
// virtually indexed, physically tagged, write-back cache with no hardware
// support for intra-cache consistency. Because lines are selected by
// virtual address but tagged with physical address:
//
//   - two virtual addresses that map to the same physical address but to
//     different cache lines (unaligned aliases) can each hold a copy of
//     the datum, and the copies can diverge;
//   - a dirty line can make memory stale, and a write-back of a stale
//     dirty line can clobber newer data in memory.
//
// The package also provides the Section 3.3 variants — write-through,
// physically indexed, and set-associative — so the reduced transition
// sets the paper derives for them can be exercised.
//
// The cache exports exactly the two consistency primitives the HP 9000
// Series 700 gives the processor, at line and page granularity: flush
// (write back if dirty, then invalidate) and purge (invalidate).
package cache

import (
	"fmt"
	"math/bits"
	"slices"

	"vcache/internal/arch"
	"vcache/internal/mem"
	"vcache/internal/sim"
)

// Indexing selects which address picks the cache set.
type Indexing uint8

const (
	// VirtualIndex selects the set with the virtual address (VIPT).
	VirtualIndex Indexing = iota
	// PhysicalIndex selects the set with the physical address (PIPT).
	PhysicalIndex
)

func (i Indexing) String() string {
	if i == VirtualIndex {
		return "virtual"
	}
	return "physical"
}

// WritePolicy selects write-back or write-through behavior.
type WritePolicy uint8

const (
	// WriteBack marks written lines dirty and defers the memory update
	// until the line is flushed or evicted; memory can become stale.
	WriteBack WritePolicy = iota
	// WriteThrough updates memory on every store; memory is never stale
	// with respect to the cache, and the dirty state disappears.
	WriteThrough
)

func (w WritePolicy) String() string {
	if w == WriteBack {
		return "write-back"
	}
	return "write-through"
}

// Config describes one cache.
type Config struct {
	Name     string // "dcache" or "icache"; used in stats output
	Size     uint64 // capacity in bytes
	Indexing Indexing
	Policy   WritePolicy
	Ways     int  // associativity; 1 = direct mapped
	ReadOnly bool // instruction cache: Write panics

	// ConstantPagePurge models the 720's instruction cache, whose page
	// purge takes constant time regardless of contents (charged as
	// Timing.ICachePagePurge instead of per line).
	ConstantPagePurge bool
}

// Stats counts cache events.
type Stats struct {
	Reads       uint64
	Writes      uint64
	Hits        uint64
	Misses      uint64
	WriteBacks  uint64 // dirty victim evictions + write-through stores
	LineFlushes uint64
	LinePurges  uint64
	PageFlushes uint64
	PagePurges  uint64
}

type line struct {
	valid bool
	dirty bool
	tag   arch.PA // line-aligned physical address
	lru   uint64
}

// Cache is a simulated cache. It is not safe for concurrent use.
//
// Lines are stored flat: way w of set s is line s*ways+w, and line i's
// words are data[i<<wordShift:][:words per line]. Every size is a power
// of two (arch.Geometry.Validate and New enforce it), so set selection,
// tags and frame tests are shifts and masks.
//
// resident[f] counts the valid lines of physical frame f — the reverse
// index a page flush or purge, and a peer snoop, consult before scanning
// (a frame with no resident line needs no scan at all). fill is the only
// place a line becomes valid; every invalidation decrements the count.
type Cache struct {
	cfg       Config
	geom      arch.Geometry
	mem       *mem.Memory
	clock     *sim.Clock
	lines     []line
	data      []uint64
	resident  []uint32
	ways      int
	nsets     uint64
	lineShift uint // log2(LineSize)
	pageShift uint // log2(PageSize)
	wordShift uint // log2(words per line)
	tick      uint64
	stats     Stats
}

// New builds a cache backed by memory m, charging cycles to clock.
func New(cfg Config, m *mem.Memory, clock *sim.Clock) (*Cache, error) {
	geom := m.Geometry()
	if cfg.Ways <= 0 {
		return nil, fmt.Errorf("cache %s: ways must be positive, got %d", cfg.Name, cfg.Ways)
	}
	if cfg.Size == 0 || cfg.Size&(cfg.Size-1) != 0 {
		return nil, fmt.Errorf("cache %s: size %d must be a power of two", cfg.Name, cfg.Size)
	}
	lineBytes := geom.LineSize
	total := cfg.Size / lineBytes
	if total%uint64(cfg.Ways) != 0 {
		return nil, fmt.Errorf("cache %s: %d lines not divisible by %d ways", cfg.Name, total, cfg.Ways)
	}
	if total < uint64(cfg.Ways) {
		return nil, fmt.Errorf("cache %s: %d lines cannot fill %d ways", cfg.Name, total, cfg.Ways)
	}
	// Page-granular maintenance works on cache pages: a way must span at
	// least one page, or the cache has no whole page to color by.
	if way := cfg.Size / uint64(cfg.Ways); way < geom.PageSize {
		return nil, fmt.Errorf("cache %s: %d ways leave %d-byte ways, smaller than a %d-byte page",
			cfg.Name, cfg.Ways, way, geom.PageSize)
	}
	return &Cache{
		cfg:       cfg,
		geom:      geom,
		mem:       m,
		clock:     clock,
		lines:     make([]line, total),
		data:      make([]uint64, total*geom.WordsPerLine()),
		resident:  make([]uint32, m.Frames()),
		ways:      cfg.Ways,
		nsets:     total / uint64(cfg.Ways),
		lineShift: uint(bits.TrailingZeros64(geom.LineSize)),
		pageShift: uint(bits.TrailingZeros64(geom.PageSize)),
		wordShift: uint(bits.TrailingZeros64(geom.WordsPerLine())),
	}, nil
}

// Clone returns an independent copy of the cache wired to a forked
// memory and clock (snapshot/fork support). Every line — valid bits,
// dirty bits, physical tags, data, LRU stamps — and the residency counts
// are copied, so the fork resumes with exactly the stale-data hazards
// the original had.
func (c *Cache) Clone(m *mem.Memory, clock *sim.Clock) *Cache {
	c2 := *c
	c2.mem = m
	c2.clock = clock
	c2.lines = slices.Clone(c.lines)
	c2.data = slices.Clone(c.data)
	c2.resident = slices.Clone(c.resident)
	return &c2
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a snapshot of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// CachePages returns the number of page-sized slices of this cache
// (i.e. the number of cache colors for page-granularity management).
func (c *Cache) CachePages() uint64 { return c.nsets >> (c.pageShift - c.lineShift) }

// setIndex picks the set for an access at (va, pa).
func (c *Cache) setIndex(va arch.VA, pa arch.PA) uint64 {
	if c.cfg.Indexing == VirtualIndex {
		return (uint64(va) >> c.lineShift) & (c.nsets - 1)
	}
	return (uint64(pa) >> c.lineShift) & (c.nsets - 1)
}

func (c *Cache) lineTag(pa arch.PA) arch.PA {
	return pa &^ arch.PA(c.geom.LineSize-1)
}

// frameOf returns the physical frame a line tag lies in. (The mask,
// a no-op on any valid shift, spares the compiler's shift-range fixup
// on the fill path.)
func (c *Cache) frameOf(tag arch.PA) uint64 { return uint64(tag) >> (c.pageShift & 63) }

// words returns line i's data.
func (c *Cache) words(i int) []uint64 {
	lo := i << c.wordShift
	return c.data[lo : lo+1<<c.wordShift]
}

// word returns the index in data of pa's word, held by line i.
func (c *Cache) word(i int, pa arch.PA) int {
	return i<<c.wordShift + int((uint64(pa)&(c.geom.LineSize-1))/arch.WordSize)
}

// lookup returns the line holding tag in set si, or -1.
func (c *Cache) lookup(si uint64, tag arch.PA) int {
	lo := int(si) * c.ways
	for i := lo; i < lo+c.ways; i++ {
		if c.lines[i].valid && c.lines[i].tag == tag {
			return i
		}
	}
	return -1
}

// victim picks the replacement line in set si: an invalid way if any,
// otherwise the least recently used.
func (c *Cache) victim(si uint64) int {
	lo := int(si) * c.ways
	v := lo
	for i := lo; i < lo+c.ways; i++ {
		if !c.lines[i].valid {
			return i
		}
		if c.lines[i].lru < c.lines[v].lru {
			v = i
		}
	}
	return v
}

// fill installs the line tagged tag in line i, writing back the victim
// if it is dirty, and charges the miss fill. This write-back is where a
// stale dirty line can clobber newer data in memory — the hazard the
// consistency algorithm must prevent from ever being observed. The fill
// data is read from memory only when load is set: a bulk store that
// overwrites the whole line skips the dead read (but not its charge).
func (c *Cache) fill(i int, tag arch.PA, load bool) {
	ln := &c.lines[i]
	if ln.valid {
		if ln.dirty {
			c.mem.WriteLine(ln.tag, c.words(i))
			c.stats.WriteBacks++
			c.clock.Charge(sim.CatAccess, c.clock.Timing().WriteBack)
		}
		c.resident[c.frameOf(ln.tag)]--
	}
	c.resident[c.frameOf(tag)]++
	ln.valid = true
	ln.dirty = false
	ln.tag = tag
	if load {
		c.mem.ReadLine(tag, c.words(i))
	}
	c.clock.Charge(sim.CatAccess, c.clock.Timing().CacheMissFill)
}

// AccessInfo reports what happened during one access, for tests.
type AccessInfo struct {
	Hit       bool
	WroteBack bool
}

// Read performs a CPU load of the word at (va, pa). The translation
// pa has already been produced by the TLB; the cache checks its physical
// tag against it exactly as the hardware does.
func (c *Cache) Read(va arch.VA, pa arch.PA) (uint64, AccessInfo) {
	c.stats.Reads++
	c.tick++
	c.clock.Charge(sim.CatAccess, c.clock.Timing().CacheHit)
	si := c.setIndex(va, pa)
	tag := c.lineTag(pa)
	info := AccessInfo{}
	i := c.lookup(si, tag)
	if i < 0 {
		c.stats.Misses++
		i = c.victim(si)
		info.WroteBack = c.lines[i].valid && c.lines[i].dirty
		c.fill(i, tag, true)
	} else {
		c.stats.Hits++
		info.Hit = true
	}
	c.lines[i].lru = c.tick
	return c.data[c.word(i, pa)], info
}

// Write performs a CPU store of v at (va, pa).
func (c *Cache) Write(va arch.VA, pa arch.PA, v uint64) AccessInfo {
	if c.cfg.ReadOnly {
		panic(fmt.Sprintf("cache %s: write to read-only cache", c.cfg.Name))
	}
	c.stats.Writes++
	c.tick++
	c.clock.Charge(sim.CatAccess, c.clock.Timing().CacheHit)
	si := c.setIndex(va, pa)
	tag := c.lineTag(pa)
	info := AccessInfo{}
	i := c.lookup(si, tag)
	if i < 0 {
		c.stats.Misses++
		i = c.victim(si)
		info.WroteBack = c.lines[i].valid && c.lines[i].dirty
		c.fill(i, tag, true)
	} else {
		c.stats.Hits++
		info.Hit = true
	}
	c.lines[i].lru = c.tick
	c.data[c.word(i, pa)] = v
	if c.cfg.Policy == WriteThrough {
		c.mem.WriteWord(pa, v)
		c.stats.WriteBacks++
		c.clock.Charge(sim.CatAccess, c.clock.Timing().WriteBack)
	} else {
		c.lines[i].dirty = true
	}
	return info
}

// FlushLine removes the line containing (va, pa) from the cache, writing
// it back first if dirty. It reports whether the line was present.
func (c *Cache) FlushLine(va arch.VA, pa arch.PA) bool {
	c.stats.LineFlushes++
	si := c.setIndex(va, pa)
	tag := c.lineTag(pa)
	t := c.clock.Timing()
	if i := c.lookup(si, tag); i >= 0 {
		ln := &c.lines[i]
		if ln.dirty {
			c.mem.WriteLine(ln.tag, c.words(i))
			c.stats.WriteBacks++
		}
		ln.valid = false
		ln.dirty = false
		c.resident[c.frameOf(tag)]--
		c.clock.Charge(sim.CatFlush, t.LineFlushHit)
		return true
	}
	c.clock.Charge(sim.CatFlush, t.LineFlushMiss)
	return false
}

// PurgeLine removes the line containing (va, pa) without writing it back.
func (c *Cache) PurgeLine(va arch.VA, pa arch.PA) bool {
	c.stats.LinePurges++
	si := c.setIndex(va, pa)
	tag := c.lineTag(pa)
	t := c.clock.Timing()
	if i := c.lookup(si, tag); i >= 0 {
		c.lines[i].valid = false
		c.lines[i].dirty = false
		c.resident[c.frameOf(tag)]--
		c.clock.Charge(sim.CatPurge, t.LinePurgeHit)
		return true
	}
	c.clock.Charge(sim.CatPurge, t.LinePurgeMiss)
	return false
}

// pageSets enumerates the set indices making up the cache page that
// frame f's lines can occupy. For a virtually indexed cache that is the
// caller's cache page cp (derived from the virtual address); for a
// physically indexed cache the lines live at sets selected by the
// physical address, so cp is ignored and the frame's own color is used.
func (c *Cache) pageSets(cp arch.CachePage, f arch.PFN) (lo, hi uint64) {
	if c.cfg.Indexing == PhysicalIndex {
		cp = arch.CachePage(uint64(f) & (c.CachePages() - 1))
	}
	pageLines := c.pageShift - c.lineShift
	lo = uint64(cp) << pageLines
	hi = lo + 1<<pageLines
	if hi > c.nsets {
		panic(fmt.Sprintf("cache %s: cache page %d out of range", c.cfg.Name, cp))
	}
	return lo, hi
}

// frameHolds reports whether tag lies within frame f.
func (c *Cache) frameHolds(f arch.PFN, tag arch.PA) bool {
	return c.frameOf(tag) == uint64(f)
}

// dropFrame invalidates every line of frame f in sets [lo, hi), writing
// each dirty one back to memory when flush is set, and returns how many
// lines it dropped. A frame has at most one line per set of a cache page
// — the set fixes the line's offset within the page — so the count is
// also the number of sets that hit. The scan returns at once when the
// frame has no resident line and stops as soon as it has found them all;
// write-backs go out in ascending set order.
func (c *Cache) dropFrame(lo, hi uint64, f arch.PFN, flush bool) uint64 {
	left := c.resident[f]
	if left == 0 {
		return 0
	}
	hits := uint32(0)
	for i := int(lo) * c.ways; i < int(hi)*c.ways && hits < left; i++ {
		ln := &c.lines[i]
		if ln.valid && c.frameHolds(f, ln.tag) {
			if flush && ln.dirty {
				c.mem.WriteLine(ln.tag, c.words(i))
				c.stats.WriteBacks++
			}
			ln.valid = false
			ln.dirty = false
			hits++
		}
	}
	c.resident[f] -= hits
	return uint64(hits)
}

// FlushPage removes from cache page cp every line belonging to physical
// frame f, writing dirty lines back. This is the page-granularity flush
// the pmap layer uses (the set of lines a virtual page maps onto). Each
// set of the page is charged a hit or a miss, so the total follows from
// the number of lines dropped without visiting every set.
func (c *Cache) FlushPage(cp arch.CachePage, f arch.PFN) {
	c.stats.PageFlushes++
	t := c.clock.Timing()
	lo, hi := c.pageSets(cp, f)
	hits := c.dropFrame(lo, hi, f, true)
	c.clock.Charge(sim.CatFlush, hits*t.LineFlushHit+(hi-lo-hits)*t.LineFlushMiss)
}

// PurgePage removes from cache page cp every line belonging to physical
// frame f without writing anything back.
func (c *Cache) PurgePage(cp arch.CachePage, f arch.PFN) {
	c.stats.PagePurges++
	t := c.clock.Timing()
	lo, hi := c.pageSets(cp, f)
	hits := c.dropFrame(lo, hi, f, false)
	if c.cfg.ConstantPagePurge {
		c.clock.Charge(sim.CatPurge, t.ICachePagePurge)
		return
	}
	c.clock.Charge(sim.CatPurge, hits*t.LinePurgeHit+(hi-lo-hits)*t.LinePurgeMiss)
}

// PurgeAll empties the whole cache without write-back (power-up state:
// "Initially, at power up, all cache lines for all virtual addresses are
// in the empty state (the cache can be purged to ensure this)").
func (c *Cache) PurgeAll() {
	for i := range c.lines {
		c.lines[i].valid = false
		c.lines[i].dirty = false
	}
	clear(c.resident)
}

// Inspection helpers (used by the oracle, invariant checks, and tests;
// real hardware has no such interface).

// Present reports whether pa's line is valid anywhere in the cache, and
// whether any such copy is dirty.
func (c *Cache) Present(pa arch.PA) (present, dirty bool) {
	tag := c.lineTag(pa)
	for i := range c.lines {
		if ln := &c.lines[i]; ln.valid && ln.tag == tag {
			present = true
			dirty = dirty || ln.dirty
		}
	}
	return present, dirty
}

// CopiesOf returns the number of distinct valid lines holding pa and how
// many of them are dirty. More than one dirty copy means writes can be
// lost in either order — the alias hazard of Section 2.2.
func (c *Cache) CopiesOf(pa arch.PA) (copies, dirty int) {
	tag := c.lineTag(pa)
	for i := range c.lines {
		if ln := &c.lines[i]; ln.valid && ln.tag == tag {
			copies++
			if ln.dirty {
				dirty++
			}
		}
	}
	return copies, dirty
}

// DirtyInFrame reports whether any valid dirty line of frame f is cached.
func (c *Cache) DirtyInFrame(f arch.PFN) bool {
	for i := range c.lines {
		if ln := &c.lines[i]; ln.valid && ln.dirty && c.frameHolds(f, ln.tag) {
			return true
		}
	}
	return false
}

// Multiprocessor snoop interface. On a cache-coherent multiprocessor the
// paper models the per-CPU caches as one distributed set-associative
// cache: equivalent lines (same set index, same physical tag) across
// CPUs form a set whose consistency the *hardware* maintains. These two
// hooks are that hardware: the machine invokes them on the peer caches
// of the CPU performing an access. Unaligned aliases — different set
// indexes — are deliberately untouched, exactly as on the real machines:
// they remain the software's problem.

// SnoopRead services a peer CPU's read of (setIndex si, tag): if this
// cache holds the line dirty, it is written back to memory (and kept,
// now clean) so the reader's fill observes current data. A cache holding
// no line of the tag's frame answers without a lookup — an exact snoop
// filter, since the residency count is never stale — and the check is
// small enough to inline into the machine's broadcast loop.
func (c *Cache) SnoopRead(si uint64, tag arch.PA) {
	if c.resident[c.frameOf(tag)] != 0 {
		c.snoopRead(si, tag)
	}
}

func (c *Cache) snoopRead(si uint64, tag arch.PA) {
	if i := c.lookup(si, tag); i >= 0 && c.lines[i].dirty {
		c.mem.WriteLine(tag, c.words(i))
		c.stats.WriteBacks++
		c.lines[i].dirty = false
	}
}

// SnoopInvalidate services a peer CPU's write of (setIndex si, tag): any
// copy this cache holds is removed (written back first if dirty) so the
// writer gains exclusive ownership. Filtered like SnoopRead.
func (c *Cache) SnoopInvalidate(si uint64, tag arch.PA) {
	if c.resident[c.frameOf(tag)] != 0 {
		c.snoopInvalidate(si, tag)
	}
}

func (c *Cache) snoopInvalidate(si uint64, tag arch.PA) {
	if i := c.lookup(si, tag); i >= 0 {
		if c.lines[i].dirty {
			c.mem.WriteLine(tag, c.words(i))
			c.stats.WriteBacks++
		}
		c.lines[i].valid = false
		c.lines[i].dirty = false
		c.resident[c.frameOf(tag)]--
	}
}

// AccessIndex exposes the set index an access at (va, pa) selects, for
// the machine's snoop broadcast.
func (c *Cache) AccessIndex(va arch.VA, pa arch.PA) uint64 { return c.setIndex(va, pa) }

// Tag exposes the line tag for pa, for the snoop broadcast.
func (c *Cache) Tag(pa arch.PA) arch.PA { return c.lineTag(pa) }
