package cache

import (
	"testing"

	"vcache/internal/arch"
)

// Per-layer microbenchmarks of the cache access path on the HP 720
// geometry. Run with
//
//	go test -run '^$' -bench . ./internal/cache

// sink keeps the benchmarked results live.
var sink uint64

// BenchmarkRead times one CPU load: "hit" rereads one resident line,
// "miss" alternates two lines that conflict in one direct-mapped set,
// so every load evicts the other (clean) line and refills from memory.
func BenchmarkRead(b *testing.B) {
	geom := arch.HP720()
	b.Run("hit", func(b *testing.B) {
		c, _, _ := testRig(b, Config{Name: "d"})
		c.Read(0x100, 0x100)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v, _ := c.Read(0x100, 0x100)
			sink += v
		}
	})
	b.Run("miss", func(b *testing.B) {
		c, _, _ := testRig(b, Config{Name: "d"})
		va := [2]arch.VA{0x100, 0x100 + arch.VA(geom.DCacheSize)}
		pa := [2]arch.PA{0x100, 0x100 + arch.PA(geom.PageSize)}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v, _ := c.Read(va[i&1], pa[i&1])
			sink += v
		}
	})
}

// BenchmarkFlushPage times a page flush: "absent" flushes a page with no
// line of the frame resident (the residency count answers without a
// scan), "dirty" first dirties every line of the page with one store
// each, so each iteration also pays those stores and the page's
// write-backs.
func BenchmarkFlushPage(b *testing.B) {
	geom := arch.HP720()
	b.Run("absent", func(b *testing.B) {
		c, _, _ := testRig(b, Config{Name: "d"})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.FlushPage(3, 3)
		}
	})
	b.Run("dirty", func(b *testing.B) {
		c, _, _ := testRig(b, Config{Name: "d"})
		base := geom.FrameBase(3)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for off := uint64(0); off < geom.PageSize; off += geom.LineSize {
				c.Write(arch.VA(base)+arch.VA(off), base+arch.PA(off), uint64(i))
			}
			c.FlushPage(3, 3)
		}
	})
}

// BenchmarkPurgePage times a page purge: "absent" purges a frame with no
// resident line, "one-line" first reads one line of the frame into the
// purged page, and "full" first reads every line of the page, so those
// iterations also pay the reads (all misses).
func BenchmarkPurgePage(b *testing.B) {
	geom := arch.HP720()
	base := geom.FrameBase(3)
	for _, tc := range []struct {
		name  string
		lines uint64
	}{{"absent", 0}, {"one-line", 1}, {"full", geom.PageSize / geom.LineSize}} {
		b.Run(tc.name, func(b *testing.B) {
			c, _, _ := testRig(b, Config{Name: "d"})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for l := uint64(0); l < tc.lines; l++ {
					off := l * geom.LineSize
					v, _ := c.Read(arch.VA(base)+arch.VA(off), base+arch.PA(off))
					sink += v
				}
				c.PurgePage(3, 3)
			}
		})
	}
}

// BenchmarkSnoop times a peer's read snoop: "absent" snoops a line of a
// frame the cache holds nothing of (the residency filter answers),
// "resident" snoops a clean line the cache holds, so the set lookup runs.
func BenchmarkSnoop(b *testing.B) {
	c, _, _ := testRig(b, Config{Name: "d"})
	c.Read(0x100, 0x100)
	si, held := c.AccessIndex(0x100, 0x100), c.Tag(0x100)
	absent := held + arch.PA(arch.HP720().PageSize)
	for _, tc := range []struct {
		name string
		tag  arch.PA
	}{{"absent", absent}, {"resident", held}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.SnoopRead(si, tc.tag)
			}
		})
	}
}
