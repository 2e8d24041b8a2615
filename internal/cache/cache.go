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

// A line's state is one tag word: its line-aligned physical tag OR-ed
// with validBit and dirtyBit. A line tag's low bits are always zero
// (arch.Geometry.Validate enforces LineSize >= WordSize), and an invalid
// line's word is 0.
const (
	validBit arch.PA = 1
	dirtyBit arch.PA = 2
)

// Cache is a simulated cache. It is not safe for concurrent use.
//
// Lines are stored flat: way w of set s is line s*ways+w, tags[i] is
// line i's tag word, and its words are data[i<<wordShift:][:words per
// line]. lru[i] is line i's last-use stamp; it exists only when ways > 1,
// since a direct-mapped set has no choice to make. Every size is a power
// of two (arch.Geometry.Validate and New enforce it), so set selection,
// tags and frame tests are shifts and masks.
//
// resident[f] counts the valid lines of physical frame f — the reverse
// index a page flush or purge, and a peer snoop, consult before scanning
// (a frame with no resident line needs no scan at all). fill is the only
// place a line becomes valid, and drop (PurgeAll aside) the only place
// one becomes invalid, so the two keep the counts.
type Cache struct {
	cfg       Config
	geom      arch.Geometry
	mem       *mem.Memory
	clock     *sim.Clock
	tags      []arch.PA
	lru       []uint64
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
	var lru []uint64
	if cfg.Ways > 1 {
		lru = make([]uint64, total)
	}
	return &Cache{
		cfg:       cfg,
		geom:      geom,
		mem:       m,
		clock:     clock,
		tags:      make([]arch.PA, total),
		lru:       lru,
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
	c2.tags = slices.Clone(c.tags)
	c2.lru = slices.Clone(c.lru)
	c2.data = slices.Clone(c.data)
	c2.resident = slices.Clone(c.resident)
	return &c2
}

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
		if c.tags[i]&^dirtyBit == tag|validBit {
			return i
		}
	}
	return -1
}

// victim picks the replacement line in set si: the set's one line when
// direct mapped, else an invalid way if any, otherwise the least
// recently used.
func (c *Cache) victim(si uint64) int {
	if c.lru == nil {
		return int(si)
	}
	lo := int(si) * c.ways
	v := lo
	for i := lo; i < lo+c.ways; i++ {
		if c.tags[i] == 0 {
			return i
		}
		if c.lru[i] < c.lru[v] {
			v = i
		}
	}
	return v
}

// fill installs the line tagged tag in line i, writing back the victim
// if it is dirty, and reports whether it did; the caller charges the
// miss fill and the write-back. This write-back is where a stale dirty
// line can clobber newer data in memory — the hazard the consistency
// algorithm must prevent from ever being observed. The fill data is read
// from memory only when load is set: a bulk store that overwrites the
// whole line skips the dead read (but not its charge).
func (c *Cache) fill(i int, tag arch.PA, load bool) bool {
	wb := c.tags[i] != 0 && c.drop(i, true)
	c.resident[c.frameOf(tag)]++
	c.tags[i] = tag | validBit
	if load {
		c.mem.ReadLine(tag, c.words(i))
	}
	return wb
}

// drop invalidates the valid line i, writing it back first if flush is
// set and it is dirty, and reports whether it wrote the line back.
func (c *Cache) drop(i int, flush bool) bool {
	tw := c.tags[i]
	c.tags[i] = 0
	c.resident[c.frameOf(tw)]--
	if !flush || tw&dirtyBit == 0 {
		return false
	}
	c.mem.WriteLine(c.lineTag(tw), c.words(i))
	c.stats.WriteBacks++
	return true
}

// Line names the run of accesses AccessLine has just performed: the
// handle through which its caller loads and stores the run's words.
type Line int

// access performs k CPU accesses of one kind to the line holding
// (va, pa): loads, or stores when write is set, the first of which
// stores v at pa (Store performs the others). Every CPU access but the
// bulk page tails' is accounted here, exactly as k word-by-word Read or
// Write calls to that line are: k reads or writes, k CacheHit charges,
// one miss and its fill (then k-1 hits) or k hits, k ticks and the
// final LRU stamp (set-associative only), and for stores the dirty bit
// or, write-through, the count and charge of k memory stores. k is at
// least 1. It returns the index in data of pa's word.
func (c *Cache) access(va arch.VA, pa arch.PA, k uint64, write bool, v uint64) int {
	si, tag := c.setIndex(va, pa), c.lineTag(pa)
	t := c.clock.Timing()
	charge := t.CacheHit * k
	i := c.lookup(si, tag)
	if i < 0 {
		c.stats.Misses++
		c.stats.Hits += k - 1
		i = c.victim(si)
		charge += t.CacheMissFill
		if c.fill(i, tag, true) {
			charge += t.WriteBack
		}
	} else {
		c.stats.Hits += k
	}
	if c.lru != nil {
		c.tick += k
		c.lru[i] = c.tick
	}
	w := c.word(i, pa)
	switch {
	case !write:
		c.stats.Reads += k
	case c.cfg.ReadOnly:
		panic(fmt.Sprintf("cache %s: write to read-only cache", c.cfg.Name))
	case c.cfg.Policy == WriteThrough:
		c.stats.Writes += k
		c.stats.WriteBacks += k
		charge += t.WriteBack * k
		c.data[w] = v
		c.mem.WriteWord(pa, v)
	default:
		c.stats.Writes += k
		c.tags[i] |= dirtyBit
		c.data[w] = v
	}
	c.clock.Charge(sim.CatAccess, charge)
	return w
}

// AccessLine performs k accesses of one kind to the line holding
// (va, pa), as k Read or Write calls to words of that line would — one
// lookup and at most one fill. A store run's first word stores v at
// pa; the caller then stores each further word with Store, or loads
// each word of a load run with Load, in run order.
func (c *Cache) AccessLine(va arch.VA, pa arch.PA, k uint64, write bool, v uint64) Line {
	return Line(c.access(va, pa, k, write, v))
}

// slot returns the index in data of pa's word, pa in l's line.
func (c *Cache) slot(l Line, pa arch.PA) int {
	return int(l)&^(1<<c.wordShift-1) + int((uint64(pa)&(c.geom.LineSize-1))/arch.WordSize)
}

// Load returns the word at pa of l's line.
func (c *Cache) Load(l Line, pa arch.PA) uint64 { return c.data[c.slot(l, pa)] }

// Store stores v at pa in l's line and, write-through, in memory.
func (c *Cache) Store(l Line, pa arch.PA, v uint64) {
	c.data[c.slot(l, pa)] = v
	if c.cfg.Policy == WriteThrough {
		c.mem.WriteWord(pa, v)
	}
}

// Read performs a CPU load of the word at (va, pa). The translation
// pa has already been produced by the TLB; the cache checks its physical
// tag against it exactly as the hardware does.
func (c *Cache) Read(va arch.VA, pa arch.PA) uint64 {
	return c.data[c.access(va, pa, 1, false, 0)]
}

// Write performs a CPU store of v at (va, pa).
func (c *Cache) Write(va arch.VA, pa arch.PA, v uint64) { c.access(va, pa, 1, true, v) }

// FlushLine removes the line containing (va, pa) from the cache, writing
// it back first if dirty. It reports whether the line was present.
func (c *Cache) FlushLine(va arch.VA, pa arch.PA) bool {
	c.stats.LineFlushes++
	si := c.setIndex(va, pa)
	tag := c.lineTag(pa)
	t := c.clock.Timing()
	if i := c.lookup(si, tag); i >= 0 {
		c.drop(i, true)
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
		c.drop(i, false)
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

// frameHolds reports whether the tag word tw is a valid line of frame f.
func (c *Cache) frameHolds(f arch.PFN, tw arch.PA) bool {
	return tw != 0 && c.frameOf(tw) == uint64(f)
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
		if c.frameHolds(f, c.tags[i]) {
			c.drop(i, flush)
			hits++
		}
	}
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
	clear(c.tags)
	clear(c.resident)
}

// Inspection helpers (used by the oracle, invariant checks, and tests;
// real hardware has no such interface).

// Present reports whether pa's line is valid anywhere in the cache, and
// whether any such copy is dirty.
func (c *Cache) Present(pa arch.PA) (present, dirty bool) {
	copies, dirtyCopies := c.CopiesOf(pa)
	return copies > 0, dirtyCopies > 0
}

// CopiesOf returns the number of distinct valid lines holding pa and how
// many of them are dirty. More than one dirty copy means writes can be
// lost in either order — the alias hazard of Section 2.2.
func (c *Cache) CopiesOf(pa arch.PA) (copies, dirty int) {
	tw := c.lineTag(pa) | validBit
	for _, t := range c.tags {
		if t&^dirtyBit == tw {
			copies++
			if t&dirtyBit != 0 {
				dirty++
			}
		}
	}
	return copies, dirty
}

// DirtyInFrame reports whether any valid dirty line of frame f is cached.
func (c *Cache) DirtyInFrame(f arch.PFN) bool {
	for _, t := range c.tags {
		if t&dirtyBit != 0 && c.frameHolds(f, t) {
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

// Holds reports whether this cache holds any line of physical frame f.
// The residency count is never stale, so a peer for which it is false
// needs no snoop for any line of f — the machine's exact snoop filter,
// taken once per run of accesses to one page.
func (c *Cache) Holds(f arch.PFN) bool { return c.resident[f] != 0 }

// SnoopRead services a peer CPU's read of (setIndex si, tag): if this
// cache holds the line dirty, it is written back to memory (and kept,
// now clean) so the reader's fill observes current data.
func (c *Cache) SnoopRead(si uint64, tag arch.PA) {
	if i := c.lookup(si, tag); i >= 0 && c.tags[i]&dirtyBit != 0 {
		c.mem.WriteLine(tag, c.words(i))
		c.stats.WriteBacks++
		c.tags[i] &^= dirtyBit
	}
}

// SnoopInvalidate services a peer CPU's write of (setIndex si, tag): any
// copy this cache holds is removed (written back first if dirty) so the
// writer gains exclusive ownership.
func (c *Cache) SnoopInvalidate(si uint64, tag arch.PA) {
	if i := c.lookup(si, tag); i >= 0 {
		c.drop(i, true)
	}
}

// AccessIndex exposes the set index an access at (va, pa) selects, for
// the machine's snoop broadcast.
func (c *Cache) AccessIndex(va arch.VA, pa arch.PA) uint64 { return c.setIndex(va, pa) }

// Tag exposes the line tag for pa, for the snoop broadcast.
func (c *Cache) Tag(pa arch.PA) arch.PA { return c.lineTag(pa) }
