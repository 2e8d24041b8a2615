package cache

import (
	"slices"
	"testing"

	"vcache/internal/arch"
)

// TestCloneIndependent: a fork of the flat line layout shares no storage
// with its original. Reads, writes, evictions, flushes and purges on the
// fork leave the original's lines, data, statistics and memory untouched.
func TestCloneIndependent(t *testing.T) {
	c, m, clock := testRig(t, Config{Name: "d", Ways: 2})
	geom := arch.HP720()
	for i := uint64(0); i < 64; i++ {
		c.Write(arch.VA(i*geom.LineSize), arch.PA(i*geom.LineSize), 100+i)
	}
	lines, data, stats := slices.Clone(c.lines), slices.Clone(c.data), c.Stats()

	fm := m.Fork()
	f := c.Clone(fm, clock.Clone())
	for i := uint64(0); i < 64; i++ {
		va, pa := arch.VA(i*geom.LineSize), arch.PA(i*geom.LineSize)
		f.Write(va, pa, 900+i)
		// Two more lines in the same set evict the fork's copy.
		f.Read(va+arch.VA(geom.DCacheSize), pa+arch.PA(geom.PageSize))
		f.Read(va+2*arch.VA(geom.DCacheSize), pa+2*arch.PA(geom.PageSize))
	}
	f.FlushPage(0, 0)
	f.PurgeAll()

	if !slices.Equal(c.lines, lines) {
		t.Error("writes to the fork changed the original's lines")
	}
	if !slices.Equal(c.data, data) {
		t.Error("writes to the fork changed the original's data")
	}
	if c.Stats() != stats {
		t.Errorf("original stats %+v, want %+v", c.Stats(), stats)
	}
	for i := uint64(0); i < 64; i++ {
		pa := arch.PA(i * geom.LineSize)
		if v := m.ReadWord(pa); v != 0 {
			t.Fatalf("fork write-back reached the original memory at %#x: %d", pa, v)
		}
		if v, hit := readHit(c, arch.VA(pa), pa); !hit || v != 100+i {
			t.Fatalf("original read %#x = %d hit=%t, want %d hit", pa, v, hit, 100+i)
		}
	}
}
