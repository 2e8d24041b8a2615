package cache

import (
	"fmt"
	"slices"
	"testing"

	"vcache/internal/arch"
)

// TestCloneIndependent: a fork of the tag words, LRU stamps and data
// resumes exactly where its original stands — the same accesses evict the
// same lines from both — and shares no storage with it: reads, writes,
// evictions, flushes and purges on the fork leave the original's tag
// words, LRU stamps, data, statistics and memory untouched. A
// direct-mapped cache has no LRU storage to fork.
func TestCloneIndependent(t *testing.T) {
	geom := arch.HP720()
	for _, ways := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("ways=%d", ways), func(t *testing.T) {
			c, m, clock := testRig(t, Config{Name: "d", Ways: ways})
			if (c.lru == nil) != (ways == 1) {
				t.Fatalf("LRU storage allocated = %t at %d ways", c.lru != nil, ways)
			}
			// Tag k of line l: every k selects the same set (one way's
			// size apart in VA) and a distinct physical page.
			wayBytes := geom.DCacheSize / uint64(ways)
			addr := func(k, l uint64) (arch.VA, arch.PA) {
				off := l * geom.LineSize
				return arch.VA(k*wayBytes + off), arch.PA(k*8*geom.PageSize + off)
			}
			const sets = 64
			n := uint64(ways)
			// Fill every way of the first sets in descending tag order,
			// then touch the first-filled line again, so that the LRU
			// order is not the way order.
			for l := uint64(0); l < sets; l++ {
				for k := n; k > 0; k-- {
					va, pa := addr(k-1, l)
					c.Write(va, pa, 100*k+l)
				}
				c.Read(addr(n-1, l))
			}

			fm := m.Fork()
			f := c.Clone(fm, clock.Clone())
			for l := uint64(0); l < sets; l++ {
				for k := n; k < n+2; k++ {
					va, pa := addr(k, l)
					_, ch := readHit(c, va, pa)
					_, fh := readHit(f, va, pa)
					if ch != fh || !slices.Equal(c.tags, f.tags) {
						t.Fatalf("read of tag %d, line %d: original hit=%t, fork hit=%t; tag words equal=%t",
							k, l, ch, fh, slices.Equal(c.tags, f.tags))
					}
				}
			}
			if !slices.Equal(c.lru, f.lru) || c.Stats() != f.Stats() {
				t.Fatalf("after the same accesses: LRU equal=%t, stats %+v and %+v",
					slices.Equal(c.lru, f.lru), c.Stats(), f.Stats())
			}
			var image []uint64
			for l := uint64(0); l < sets; l++ {
				for k := uint64(0); k < n+2; k++ {
					_, pa := addr(k, l)
					if cv, fv := m.ReadWord(pa), fm.ReadWord(pa); cv != fv {
						t.Fatalf("write-backs differ at %#x: original %d, fork %d", pa, cv, fv)
					}
					image = append(image, m.ReadWord(pa))
				}
			}

			tags, lru, data, stats := slices.Clone(c.tags), slices.Clone(c.lru), slices.Clone(c.data), c.Stats()
			for l := uint64(0); l < sets; l++ {
				for k := uint64(0); k < n+2; k++ {
					va, pa := addr(k, l)
					f.Write(va, pa, 900+k*sets+l)
				}
			}
			f.FlushPage(0, 0)
			f.PurgeAll()

			if !slices.Equal(c.tags, tags) {
				t.Error("the fork changed the original's tag words")
			}
			if !slices.Equal(c.lru, lru) {
				t.Error("the fork changed the original's LRU stamps")
			}
			if !slices.Equal(c.data, data) {
				t.Error("the fork changed the original's data")
			}
			if c.Stats() != stats {
				t.Errorf("original stats %+v, want %+v", c.Stats(), stats)
			}
			i := 0
			for l := uint64(0); l < sets; l++ {
				for k := uint64(0); k < n+2; k++ {
					_, pa := addr(k, l)
					if v := m.ReadWord(pa); v != image[i] {
						t.Fatalf("fork write-back reached the original memory at %#x: %d, want %d", pa, v, image[i])
					}
					i++
				}
			}
		})
	}
}
