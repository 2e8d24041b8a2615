package cache

import (
	"testing"

	"vcache/internal/arch"
	"vcache/internal/mem"
	"vcache/internal/sim"
)

func testRig(t testing.TB, cfg Config) (*Cache, *mem.Memory, *sim.Clock) {
	t.Helper()
	geom := arch.HP720()
	clock := sim.NewClock(sim.HP720Timing())
	m, err := mem.New(geom, 256)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Size == 0 {
		cfg.Size = geom.DCacheSize
	}
	if cfg.Ways == 0 {
		cfg.Ways = 1
	}
	c, err := New(cfg, m, clock)
	if err != nil {
		t.Fatal(err)
	}
	return c, m, clock
}

// readHit reads (va, pa) from c and reports whether the access hit.
func readHit(c *Cache, va arch.VA, pa arch.PA) (uint64, bool) {
	misses := c.Stats().Misses
	v := c.Read(va, pa)
	return v, c.Stats().Misses == misses
}

func TestReadMissThenHit(t *testing.T) {
	c, m, _ := testRig(t, Config{Name: "d"})
	m.WriteWord(0x100, 77)
	v, hit := readHit(c, 0x100, 0x100)
	if v != 77 || hit {
		t.Fatalf("first read: v=%d hit=%t", v, hit)
	}
	v, hit = readHit(c, 0x100, 0x100)
	if v != 77 || !hit {
		t.Fatalf("second read: v=%d hit=%t", v, hit)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats hits=%d misses=%d", s.Hits, s.Misses)
	}
}

func TestWriteBackDefersMemoryUpdate(t *testing.T) {
	c, m, _ := testRig(t, Config{Name: "d", Policy: WriteBack})
	c.Write(0x200, 0x200, 99)
	if m.ReadWord(0x200) != 0 {
		t.Error("write-back cache updated memory immediately")
	}
	if present, dirty := c.Present(0x200); !present || !dirty {
		t.Errorf("line present=%t dirty=%t", present, dirty)
	}
	if !c.FlushLine(0x200, 0x200) {
		t.Error("flush missed a present line")
	}
	if m.ReadWord(0x200) != 99 {
		t.Error("flush did not write the line back")
	}
	if present, _ := c.Present(0x200); present {
		t.Error("flush did not invalidate the line")
	}
}

func TestWriteThroughUpdatesMemory(t *testing.T) {
	c, m, _ := testRig(t, Config{Name: "d", Policy: WriteThrough})
	c.Write(0x300, 0x300, 5)
	if m.ReadWord(0x300) != 5 {
		t.Error("write-through cache left memory stale")
	}
	if _, dirty := c.Present(0x300); dirty {
		t.Error("write-through line marked dirty")
	}
}

func TestPurgeDropsDirtyData(t *testing.T) {
	c, m, _ := testRig(t, Config{Name: "d"})
	c.Write(0x400, 0x400, 123)
	if !c.PurgeLine(0x400, 0x400) {
		t.Error("purge missed the line")
	}
	if m.ReadWord(0x400) != 0 {
		t.Error("purge wrote data back")
	}
	v := c.Read(0x400, 0x400)
	if v != 0 {
		t.Errorf("read after purge = %d, want memory value 0", v)
	}
}

// TestUnalignedAliasDuplicates shows the defining hazard: the same
// physical line cached twice under two virtual indexes, diverging.
func TestUnalignedAliasDuplicates(t *testing.T) {
	c, _, _ := testRig(t, Config{Name: "d"})
	geom := arch.HP720()
	pa := arch.PA(0x1000)
	va1 := geom.PageBase(0x10) // color 16
	va2 := geom.PageBase(0x11) // color 17
	c.Read(va1, pa)
	c.Read(va2, pa)
	if copies, _ := c.CopiesOf(pa); copies != 2 {
		t.Fatalf("copies = %d, want 2", copies)
	}
	// Writing through one leaves the other stale.
	c.Write(va1, pa, 0xAA)
	v, hit := readHit(c, va2, pa)
	if !hit {
		t.Fatal("alias read should hit its own stale line")
	}
	if v == 0xAA {
		t.Fatal("hardware magically kept aliases consistent?")
	}
}

// TestAlignedAliasSharesLine shows why aligned aliases need no
// management in a physically tagged cache.
func TestAlignedAliasSharesLine(t *testing.T) {
	c, _, _ := testRig(t, Config{Name: "d"})
	geom := arch.HP720()
	pa := arch.PA(0x2000)
	va1 := geom.PageBase(0x10)
	va2 := geom.PageBase(0x10 + 64) // same color, different page
	c.Write(va1, pa, 7)
	v, hit := readHit(c, va2, pa)
	if !hit || v != 7 {
		t.Fatalf("aligned alias: hit=%t v=%d, want hit with 7", hit, v)
	}
	if copies, _ := c.CopiesOf(pa); copies != 1 {
		t.Errorf("aligned aliases made %d copies", copies)
	}
}

func TestEvictionWritesBackDirtyVictim(t *testing.T) {
	c, m, _ := testRig(t, Config{Name: "d"})
	geom := arch.HP720()
	// Two physical lines contending for the same set (VAs 256 KiB apart).
	va1 := arch.VA(0x0)
	va2 := arch.VA(geom.DCacheSize)
	c.Write(va1, 0x0, 11)
	c.Read(va2, 0x8000)
	if c.Stats().WriteBacks != 1 {
		t.Error("eviction of dirty victim did not count a write-back")
	}
	if m.ReadWord(0x0) != 11 {
		t.Error("victim data lost on eviction")
	}
}

func TestPIPTIndexesByPhysical(t *testing.T) {
	c, _, _ := testRig(t, Config{Name: "d", Indexing: PhysicalIndex})
	geom := arch.HP720()
	pa := arch.PA(0x3000)
	va1 := geom.PageBase(0x20)
	va2 := geom.PageBase(0x21) // different virtual color
	c.Write(va1, pa, 9)
	v, hit := readHit(c, va2, pa)
	if !hit || v != 9 {
		t.Fatal("physically indexed cache must resolve aliases in hardware")
	}
	if copies, _ := c.CopiesOf(pa); copies != 1 {
		t.Errorf("PIPT made %d copies of one line", copies)
	}
}

func TestSetAssociativeLRU(t *testing.T) {
	c, _, _ := testRig(t, Config{Name: "d", Ways: 2})
	geom := arch.HP720()
	// Three lines mapping to the same set in a 2-way cache.
	stride := geom.DCacheSize / 2 // set count halves with 2 ways
	va := func(i int) arch.VA { return arch.VA(uint64(i) * stride) }
	pa := func(i int) arch.PA { return arch.PA(0x10000 + uint64(i)*64) }
	c.Read(va(0), pa(0))
	c.Read(va(1), pa(1))
	c.Read(va(0), pa(0)) // refresh 0's recency
	c.Read(va(2), pa(2)) // evicts pa(1), the LRU
	if p, _ := c.Present(pa(0)); !p {
		t.Error("recently used way evicted")
	}
	if p, _ := c.Present(pa(1)); p {
		t.Error("LRU way survived")
	}
	if p, _ := c.Present(pa(2)); !p {
		t.Error("new line absent")
	}
}

func TestFlushPageScopesToFrame(t *testing.T) {
	c, m, _ := testRig(t, Config{Name: "d"})
	geom := arch.HP720()
	// Two frames cached at the same cache page through aligned VAs.
	vaA := geom.PageBase(0x40) // color 0
	vaB := geom.PageBase(0x80) // color 0
	c.Write(vaA, geom.FrameBase(10), 1)
	c.Write(vaB, geom.FrameBase(11), 2)
	c.FlushPage(0, 10)
	if m.ReadWord(geom.FrameBase(10)) != 1 {
		t.Error("flush page did not write frame 10 back")
	}
	if p, _ := c.Present(geom.FrameBase(10)); p {
		t.Error("frame 10 still cached after page flush")
	}
	if p, d := c.Present(geom.FrameBase(11)); !p || !d {
		t.Error("page flush touched another frame's line")
	}
}

func TestPurgePageCosts(t *testing.T) {
	geom := arch.HP720()
	c, _, clock := testRig(t, Config{Name: "d"})
	before := clock.Cycles()
	missCost := c.PurgePage(3, 42) // empty page: all misses
	if clock.Cycles() != before {
		t.Error("page purge charged the clock itself; its caller charges the cycles it returns")
	}
	want := geom.LinesPerPage() * sim.HP720Timing().LinePurgeMiss
	if missCost != want {
		t.Errorf("empty page purge cost %d, want %d", missCost, want)
	}
}

func TestConstantPagePurge(t *testing.T) {
	c, _, _ := testRig(t, Config{Name: "i", ReadOnly: true, ConstantPagePurge: true, Size: arch.HP720().ICacheSize})
	geom := arch.HP720()
	c.Read(geom.PageBase(0), geom.FrameBase(5))
	if got := c.PurgePage(0, 5); got != sim.HP720Timing().ICachePagePurge {
		t.Errorf("constant page purge cost %d, want %d", got, sim.HP720Timing().ICachePagePurge)
	}
	if p, _ := c.Present(geom.FrameBase(5)); p {
		t.Error("constant-time purge left the line valid")
	}
}

func TestReadOnlyCachePanicsOnWrite(t *testing.T) {
	c, _, _ := testRig(t, Config{Name: "i", ReadOnly: true})
	defer func() {
		if recover() == nil {
			t.Error("write to read-only cache should panic")
		}
	}()
	c.Write(0, 0, 1)
}

func TestPurgeAll(t *testing.T) {
	c, _, _ := testRig(t, Config{Name: "d"})
	c.Write(0, 0, 1)
	c.Write(4096, 4096, 2)
	c.PurgeAll()
	if p, _ := c.Present(0); p {
		t.Error("PurgeAll left data")
	}
	if c.DirtyInFrame(0) {
		t.Error("PurgeAll left dirty data")
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	geom := arch.HP720()
	clock := sim.NewClock(sim.HP720Timing())
	m, _ := mem.New(geom, 4)
	if _, err := New(Config{Name: "x", Size: geom.DCacheSize, Ways: 0}, m, clock); err == nil {
		t.Error("zero ways accepted")
	}
	if _, err := New(Config{Name: "x", Size: 1000, Ways: 1}, m, clock); err == nil {
		t.Error("non-power-of-two size accepted")
	}
	if _, err := New(Config{Name: "x", Size: geom.DCacheSize, Ways: 3}, m, clock); err == nil {
		t.Error("ways not dividing line count accepted")
	}
	if _, err := New(Config{Name: "x", Size: geom.DCacheSize, Ways: 128}, m, clock); err == nil {
		t.Error("ways smaller than a page accepted")
	}
}

// TestCacheMatchesMemoryModel is the hardware-level property test: under
// a single identity mapping (no aliases), any sequence of reads, writes,
// flushes, and purges must make reads return exactly what a flat memory
// would. Exercised for every cache flavor.
func TestCacheMatchesMemoryModel(t *testing.T) {
	flavors := []Config{
		{Name: "vipt-wb"},
		{Name: "vipt-wt", Policy: WriteThrough},
		{Name: "pipt-wb", Indexing: PhysicalIndex},
		{Name: "2way", Ways: 2},
		{Name: "4way", Ways: 4},
	}
	for _, cfg := range flavors {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			c, m, _ := testRig(t, cfg)
			geom := arch.HP720()
			model := make(map[arch.PA]uint64)
			rng := sim.NewRand(99)
			const span = 64 * 1024
			addr := func() arch.PA {
				return arch.PA(rng.Intn(span/8) * 8)
			}
			for i := 0; i < 50000; i++ {
				pa := addr()
				va := arch.VA(pa) // identity mapping: aligned by construction
				switch rng.Intn(10) {
				case 0:
					c.FlushLine(va, pa)
				case 1:
					// Purging a dirty line deliberately discards its
					// data; subsequent reads see memory. Resync the
					// model with memory for the purged line.
					c.PurgeLine(va, pa)
					base := pa &^ arch.PA(geom.LineSize-1)
					for w := uint64(0); w < geom.WordsPerLine(); w++ {
						wpa := base + arch.PA(w*arch.WordSize)
						model[wpa] = m.ReadWord(wpa)
					}
				case 2, 3, 4:
					v := rng.Uint64()
					model[pa] = v
					c.Write(va, pa, v)
				default:
					got := c.Read(va, pa)
					if got != model[pa] {
						t.Fatalf("%s: read %#x = %d, model %d (op %d)", cfg.Name, uint64(pa), got, model[pa], i)
					}
				}
			}
		})
	}
}
