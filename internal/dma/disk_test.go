package dma

import (
	"slices"
	"testing"

	"vcache/internal/arch"
	"vcache/internal/machine"
)

func newMachine(t *testing.T) *machine.Machine {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.Frames = 16
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBlockRoundTrip(t *testing.T) {
	m := newMachine(t)
	d := NewDisk(m)
	b := d.AllocBlock()

	// Fill a frame via DMA-write semantics (memory direct).
	words := int(m.Geom.WordsPerPage())
	src := make([]uint64, words)
	for i := range src {
		src[i] = uint64(1000 + i)
	}
	m.DMAWrite(m.Geom.FrameBase(3), src)

	if err := d.WriteBlock(b, 3); err != nil {
		t.Fatal(err)
	}
	got, ok := d.Peek(b)
	if !ok || got[10] != 1010 {
		t.Fatalf("block word 10 = %v", got[10])
	}

	// Read it back into another frame.
	if err := d.ReadBlock(b, 5); err != nil {
		t.Fatal(err)
	}
	if v := m.Mem.ReadWord(m.Geom.FrameBase(5) + 10*8); v != 1010 {
		t.Fatalf("frame word = %d", v)
	}
	if len(m.Oracle.Violations()) != 0 {
		t.Fatalf("oracle: %v", m.Oracle.Violations()[0])
	}
	s := d.Stats()
	if s.Reads != 1 || s.Writes != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestUnallocatedBlockRejected(t *testing.T) {
	m := newMachine(t)
	d := NewDisk(m)
	if err := d.ReadBlock(99, 0); err == nil {
		t.Error("read of unallocated block accepted")
	}
	if err := d.WriteBlock(99, 0); err == nil {
		t.Error("write of unallocated block accepted")
	}
	if _, ok := d.Peek(99); ok {
		t.Error("peek of unallocated block succeeded")
	}
}

func TestBlocksAreDistinct(t *testing.T) {
	m := newMachine(t)
	d := NewDisk(m)
	b1, b2 := d.AllocBlock(), d.AllocBlock()
	if b1 == b2 {
		t.Fatal("duplicate block IDs")
	}
	m.DMAWrite(m.Geom.FrameBase(1), []uint64{42})
	if err := d.WriteBlock(b1, 1); err != nil {
		t.Fatal(err)
	}
	got, _ := d.Peek(b2)
	if got[0] != 0 {
		t.Error("write to b1 leaked into b2")
	}
}

func TestDiskChargesTime(t *testing.T) {
	m := newMachine(t)
	d := NewDisk(m)
	b := d.AllocBlock()
	before := m.Clock.Cycles()
	if err := d.ReadBlock(b, 0); err != nil {
		t.Fatal(err)
	}
	if m.Clock.Cycles() == before {
		t.Error("disk access charged no time")
	}
}

// TestNeverWrittenBlockReadsZero reads a never-written block and a block
// written from a zeroed frame into two dirty frames. Both frames must end
// all zero, and the two transfers must cost the same machine counters and
// cycles: a block with no stored content still moves a full page by DMA.
func TestNeverWrittenBlockReadsZero(t *testing.T) {
	m := newMachine(t)
	d := NewDisk(m)
	fresh, written := d.AllocBlock(), d.AllocBlock()
	if err := d.WriteBlock(written, 2); err != nil { // frame 2 is still zero
		t.Fatal(err)
	}
	words := int(m.Geom.WordsPerPage())
	junk := make([]uint64, words)
	for i := range junk {
		junk[i] = uint64(7 + i)
	}
	type cost struct {
		stats  machine.Stats
		cycles uint64
	}
	read := func(b BlockID, f uint64) cost {
		m.DMAWrite(m.Geom.FrameBase(arch.PFN(f)), junk)
		m.ResetStats()
		c0 := m.Clock.Cycles()
		if err := d.ReadBlock(b, arch.PFN(f)); err != nil {
			t.Fatal(err)
		}
		c := cost{m.Stats(), m.Clock.Cycles() - c0}
		for i := 0; i < words; i++ {
			if v := m.Mem.ReadWord(m.Geom.FrameBase(arch.PFN(f)) + arch.PA(i*arch.WordSize)); v != 0 {
				t.Fatalf("block %d: frame %d word %d = %d, want 0", b, f, i, v)
			}
		}
		return c
	}
	if got, want := read(fresh, 5), read(written, 6); got != want || got.stats.DMAWords != uint64(words) {
		t.Fatalf("never-written block read cost %+v, written zero block %+v", got, want)
	}
	if got, ok := d.Peek(fresh); !ok || len(got) != words || slices.ContainsFunc(got, func(v uint64) bool { return v != 0 }) {
		t.Fatalf("Peek(never-written) = %d words, ok=%t; want %d zeros", len(got), ok, words)
	}
	if len(m.Oracle.Violations()) != 0 {
		t.Fatalf("oracle: %v", m.Oracle.Violations()[0])
	}
}
