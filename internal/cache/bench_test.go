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

// BenchmarkFlushPage times a page flush: "clean" flushes a page with no
// line of the frame resident (the scan alone), "dirty" first dirties
// every line of the page with one store each, so each iteration also
// pays those stores and the page's write-backs.
func BenchmarkFlushPage(b *testing.B) {
	geom := arch.HP720()
	b.Run("clean", func(b *testing.B) {
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
