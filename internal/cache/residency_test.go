package cache

import (
	"fmt"
	"slices"
	"testing"

	"vcache/internal/arch"
	"vcache/internal/mem"
	"vcache/internal/sim"
)

// Reference page maintenance: the full-scan loops the residency counts
// replaced. They visit every set of the cache page whatever the cache
// holds, and never read the counts, so they are the specification the
// O(resident) page operations and the snoop filter must reproduce.

func refFlushPage(c *Cache, cp arch.CachePage, f arch.PFN) {
	c.stats.PageFlushes++
	t := c.clock.Timing()
	lo, hi := c.pageSets(cp, f)
	for si := lo; si < hi; si++ {
		hit := false
		for i := int(si) * c.ways; i < int(si+1)*c.ways; i++ {
			if tw := c.tags[i]; c.frameHolds(f, tw) {
				if tw&dirtyBit != 0 {
					c.mem.WriteLine(c.lineTag(tw), c.words(i))
					c.stats.WriteBacks++
				}
				c.tags[i] = 0
				hit = true
			}
		}
		if hit {
			c.clock.Charge(sim.CatFlush, t.LineFlushHit)
		} else {
			c.clock.Charge(sim.CatFlush, t.LineFlushMiss)
		}
	}
}

func refPurgePage(c *Cache, cp arch.CachePage, f arch.PFN) {
	c.stats.PagePurges++
	t := c.clock.Timing()
	lo, hi := c.pageSets(cp, f)
	if c.cfg.ConstantPagePurge {
		for i := int(lo) * c.ways; i < int(hi)*c.ways; i++ {
			if c.frameHolds(f, c.tags[i]) {
				c.tags[i] = 0
			}
		}
		c.clock.Charge(sim.CatPurge, t.ICachePagePurge)
		return
	}
	for si := lo; si < hi; si++ {
		hit := false
		for i := int(si) * c.ways; i < int(si+1)*c.ways; i++ {
			if c.frameHolds(f, c.tags[i]) {
				c.tags[i] = 0
				hit = true
			}
		}
		if hit {
			c.clock.Charge(sim.CatPurge, t.LinePurgeHit)
		} else {
			c.clock.Charge(sim.CatPurge, t.LinePurgeMiss)
		}
	}
}

func refSnoopRead(c *Cache, si uint64, tag arch.PA) {
	if i := c.lookup(si, tag); i >= 0 && c.tags[i]&dirtyBit != 0 {
		c.mem.WriteLine(tag, c.words(i))
		c.stats.WriteBacks++
		c.tags[i] &^= dirtyBit
	}
}

func refSnoopInvalidate(c *Cache, si uint64, tag arch.PA) {
	if i := c.lookup(si, tag); i >= 0 {
		if c.tags[i]&dirtyBit != 0 {
			c.mem.WriteLine(tag, c.words(i))
			c.stats.WriteBacks++
		}
		c.tags[i] = 0
	}
}

// recount rebuilds the per-frame residency counts from the tag words.
func recount(c *Cache) []uint32 {
	n := make([]uint32, len(c.resident))
	for _, tw := range c.tags {
		if tw&validBit != 0 {
			n[c.frameOf(tw)]++
		}
	}
	return n
}

// residencyRig is one cache with its own memory and clock.
type residencyRig struct {
	c     *Cache
	m     *mem.Memory
	clock *sim.Clock
}

func newResidencyRig(t *testing.T, cfg Config) residencyRig {
	t.Helper()
	clock := sim.NewClock(sim.HP720Timing())
	m, err := mem.New(arch.HP720(), 32)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(cfg, m, clock)
	if err != nil {
		t.Fatal(err)
	}
	return residencyRig{c: c, m: m, clock: clock}
}

func (r residencyRig) clone() residencyRig {
	m := r.m.Fork()
	clock := r.clock.Clone()
	return residencyRig{c: r.c.Clone(m, clock), m: m, clock: clock}
}

// TestResidencyMatchesFullScan drives a cache with the residency counts
// and a reference cache whose page operations and snoops are the
// full-scan loops above through the same seeded random sequence of every
// operation that installs or drops a line, cloning both partway. After
// every operation the counts must equal a full recount, and the two
// caches must agree on tag words, LRU stamps, data, stats, per-category cycles and the
// memory image.
func TestResidencyMatchesFullScan(t *testing.T) {
	geom := arch.HP720()
	flavors := []Config{
		{Name: "vipt-wb"},
		{Name: "vipt-wb-2way", Ways: 2},
		{Name: "vipt-wb-4way", Ways: 4},
		{Name: "pipt-wb", Indexing: PhysicalIndex},
		{Name: "pipt-wb-2way", Indexing: PhysicalIndex, Ways: 2},
		{Name: "vipt-wt", Policy: WriteThrough},
		{Name: "vipt-wt-4way", Policy: WriteThrough, Ways: 4},
		{Name: "icache-const-purge", ReadOnly: true, ConstantPagePurge: true},
		{Name: "icache-const-purge-2way", ReadOnly: true, ConstantPagePurge: true, Ways: 2},
	}
	ops := 1500
	if testing.Short() {
		ops = 400
	}
	for _, cfg := range flavors {
		if cfg.Ways == 0 {
			cfg.Ways = 1
		}
		// Four cache pages, whatever the associativity: small enough that
		// frames collide in sets and page operations find resident lines.
		cfg.Size = 4 * geom.PageSize * uint64(cfg.Ways)
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", cfg.Name, seed), func(t *testing.T) {
				runResidencyDifferential(t, cfg, seed, ops)
			})
		}
	}
}

func runResidencyDifferential(t *testing.T, cfg Config, seed uint64, ops int) {
	geom := arch.HP720()
	got, want := newResidencyRig(t, cfg), newResidencyRig(t, cfg)
	rnd := sim.NewRand(seed)
	colors := int(got.c.CachePages())
	// Frames of mixed colors, several sharing one, so physically indexed
	// configurations conflict too.
	frames := []arch.PFN{0, 1, 2, 4, 5, 8, 12, 17}
	wpp := geom.WordsPerPage()

	pick := func() (arch.VA, arch.PA) {
		vpn := uint64(rnd.Intn(4 * colors))
		f := frames[rnd.Intn(len(frames))]
		line := uint64(rnd.Intn(int(geom.PageSize / geom.LineSize)))
		if rnd.Bool(0.5) {
			line = uint64(rnd.Intn(8))
		}
		off := line*geom.LineSize + uint64(rnd.Intn(int(geom.WordsPerLine())))*arch.WordSize
		return arch.VA(vpn*geom.PageSize + off), geom.FrameBase(f) + arch.PA(off)
	}
	pickPage := func() (arch.VA, arch.PA) {
		return arch.VA(uint64(rnd.Intn(4*colors)) * geom.PageSize), geom.FrameBase(frames[rnd.Intn(len(frames))])
	}
	check := func(step int, op string) {
		t.Helper()
		if n := recount(got.c); !slices.Equal(got.c.resident, n) {
			for f := range n {
				if got.c.resident[f] != n[f] {
					t.Fatalf("op %d (%s): resident[%d] = %d, recount %d", step, op, f, got.c.resident[f], n[f])
				}
			}
		}
		if !slices.Equal(got.c.tags, want.c.tags) {
			t.Fatalf("op %d (%s): tag words differ from the full-scan reference", step, op)
		}
		if !slices.Equal(got.c.lru, want.c.lru) {
			t.Fatalf("op %d (%s): LRU stamps differ from the full-scan reference", step, op)
		}
		if !slices.Equal(got.c.data, want.c.data) {
			t.Fatalf("op %d (%s): line data differs from the full-scan reference", step, op)
		}
		if got.c.Stats() != want.c.Stats() {
			t.Fatalf("op %d (%s): stats %+v, reference %+v", step, op, got.c.Stats(), want.c.Stats())
		}
		for _, cat := range []sim.Category{sim.CatAccess, sim.CatFlush, sim.CatPurge} {
			if g, w := got.clock.CyclesIn(cat), want.clock.CyclesIn(cat); g != w {
				t.Fatalf("op %d (%s): %v cycles %d, reference %d", step, op, cat, g, w)
			}
		}
		gw, ww := make([]uint64, wpp), make([]uint64, wpp)
		for _, f := range frames {
			got.m.ReadWords(geom.FrameBase(f), gw)
			want.m.ReadWords(geom.FrameBase(f), ww)
			if !slices.Equal(gw, ww) {
				t.Fatalf("op %d (%s): memory of frame %d differs from the reference", step, op, f)
			}
		}
	}

	var orig residencyRig
	for step := 0; step < ops; step++ {
		if step == ops/2 {
			orig = got
			got, want = got.clone(), want.clone()
		}
		var op string
		switch k := rnd.Intn(15); {
		case k < 3:
			op = "read"
			va, pa := pick()
			if gv, wv := got.c.Read(va, pa), want.c.Read(va, pa); gv != wv {
				t.Fatalf("op %d: read %d, reference %d", step, gv, wv)
			}
		case k < 6 && !cfg.ReadOnly:
			op = "write"
			va, pa := pick()
			v := rnd.Uint64()
			got.c.Write(va, pa, v)
			want.c.Write(va, pa, v)
		case k == 6:
			op = "flush-line"
			va, pa := pick()
			got.c.FlushLine(va, pa)
			want.c.FlushLine(va, pa)
		case k == 7:
			op = "purge-line"
			va, pa := pick()
			got.c.PurgeLine(va, pa)
			want.c.PurgeLine(va, pa)
		case k == 8:
			op = "flush-page"
			cp, f := arch.CachePage(rnd.Intn(colors)), frames[rnd.Intn(len(frames))]
			got.clock.Charge(sim.CatFlush, got.c.FlushPage(cp, f))
			refFlushPage(want.c, cp, f)
		case k == 9:
			op = "purge-page"
			cp, f := arch.CachePage(rnd.Intn(colors)), frames[rnd.Intn(len(frames))]
			got.clock.Charge(sim.CatPurge, got.c.PurgePage(cp, f))
			refPurgePage(want.c, cp, f)
		case k == 10:
			op = "snoop-read"
			va, pa := pick()
			si, tag := got.c.AccessIndex(va, pa), got.c.Tag(pa)
			got.c.SnoopRead(si, tag)
			refSnoopRead(want.c, si, tag)
		case k == 11:
			op = "snoop-invalidate"
			va, pa := pick()
			si, tag := got.c.AccessIndex(va, pa), got.c.Tag(pa)
			got.c.SnoopInvalidate(si, tag)
			refSnoopInvalidate(want.c, si, tag)
		case k == 12 && got.c.CanBulk():
			op = "bulk-zero"
			va, pa := pickPage()
			for _, r := range []residencyRig{got, want} {
				r.c.Write(va, pa, 0)
				r.c.BulkZeroTail(nil, va, pa)
			}
		case k == 13 && got.c.CanBulk():
			op = "bulk-copy"
			sva, spa := pickPage()
			dva, dpa := pickPage()
			if got.c.AccessIndex(sva, spa)/(geom.PageSize/geom.LineSize) == got.c.AccessIndex(dva, dpa)/(geom.PageSize/geom.LineSize) || spa == dpa {
				continue // the caller guarantees distinct colors and frames
			}
			for _, r := range []residencyRig{got, want} {
				v := r.c.Read(sva, spa)
				r.c.Write(dva, dpa, v)
				r.c.BulkCopyTail(nil, sva, spa, dva, dpa)
			}
		case k == 14 && rnd.Bool(0.1):
			op = "purge-all"
			got.c.PurgeAll()
			want.c.PurgeAll()
		default:
			continue
		}
		check(step, op)
	}
	if n := recount(orig.c); !slices.Equal(orig.c.resident, n) {
		t.Fatal("operations on the clone changed the original's residency counts")
	}
}
