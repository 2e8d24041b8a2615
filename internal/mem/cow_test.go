package mem

import (
	"fmt"
	"testing"

	"vcache/internal/arch"
)

func testMem(t *testing.T, frames int) *Memory {
	t.Helper()
	m, err := New(arch.HP720(), frames)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func TestForkSharesUntilWrite(t *testing.T) {
	m := testMem(t, 8)
	for f := 0; f < 8; f++ {
		m.WriteWord(arch.PA(uint64(f)*m.geom.PageSize), uint64(100+f))
	}
	child := m.Fork()
	if got := child.SharedPages(); got != 8 {
		t.Fatalf("child shares %d pages after fork, want 8", got)
	}
	// Parent was not frozen, so it too lost ownership.
	if got := m.SharedPages(); got != 8 {
		t.Fatalf("parent shares %d pages after fork, want 8", got)
	}
	for f := 0; f < 8; f++ {
		if got := child.ReadWord(arch.PA(uint64(f) * m.geom.PageSize)); got != uint64(100+f) {
			t.Fatalf("child frame %d: got %d, want %d", f, got, 100+f)
		}
	}

	// Child write privatizes exactly one page and is invisible to the
	// parent.
	child.WriteWord(arch.PA(3*m.geom.PageSize), 999)
	if got := child.SharedPages(); got != 7 {
		t.Fatalf("child shares %d pages after one write, want 7", got)
	}
	if got := m.ReadWord(arch.PA(3 * m.geom.PageSize)); got != 103 {
		t.Fatalf("parent saw child write: got %d, want 103", got)
	}
	// Parent write after fork is invisible to the child.
	m.WriteWord(arch.PA(5*m.geom.PageSize), 555)
	if got := child.ReadWord(arch.PA(5 * m.geom.PageSize)); got != 105 {
		t.Fatalf("child saw parent write: got %d, want 105", got)
	}
}

func TestFrozenForkLeavesParentUntouched(t *testing.T) {
	m := testMem(t, 4)
	m.WriteWord(0, 42)
	m.Freeze()
	a := m.Fork()
	b := m.Fork()
	if got := m.SharedPages(); got != 0 {
		t.Fatalf("frozen parent lost ownership of %d pages", got)
	}
	a.WriteWord(0, 1)
	b.WriteWord(0, 2)
	if got, want := a.ReadWord(0), uint64(1); got != want {
		t.Fatalf("fork a: got %d, want %d", got, want)
	}
	if got, want := b.ReadWord(0), uint64(2); got != want {
		t.Fatalf("fork b: got %d, want %d", got, want)
	}
	if got, want := m.ReadWord(0), uint64(42); got != want {
		t.Fatalf("frozen parent: got %d, want %d", got, want)
	}
}

func TestConcurrentForksFromFrozenImage(t *testing.T) {
	m := testMem(t, 16)
	for f := 0; f < 16; f++ {
		m.WriteWord(arch.PA(uint64(f)*m.geom.PageSize), uint64(f))
	}
	m.Freeze()
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		g := g
		go func() {
			c := m.Fork()
			for f := 0; f < 16; f++ {
				pa := arch.PA(uint64(f) * c.geom.PageSize)
				c.WriteWord(pa, uint64(g*1000+f))
			}
			for f := 0; f < 16; f++ {
				pa := arch.PA(uint64(f) * c.geom.PageSize)
				if got := c.ReadWord(pa); got != uint64(g*1000+f) {
					done <- fmt.Errorf("fork %d frame %d: got %d", g, f, got)
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	for f := 0; f < 16; f++ {
		if got := m.ReadWord(arch.PA(uint64(f) * m.geom.PageSize)); got != uint64(f) {
			t.Fatalf("frozen image mutated at frame %d: got %d", f, got)
		}
	}
}

func TestBulkOpsCrossPages(t *testing.T) {
	m := testMem(t, 4)
	wpp := int(m.geom.WordsPerPage())
	// A transfer spanning the frame 1/2 boundary.
	src := make([]uint64, wpp+10)
	for i := range src {
		src[i] = uint64(i) + 7
	}
	start := arch.PA(uint64(wpp)*arch.WordSize + m.geom.PageSize/2)
	m.WriteWords(start, src)
	dst := make([]uint64, len(src))
	m.ReadWords(start, dst)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("word %d: got %d, want %d", i, dst[i], src[i])
		}
	}
	// The same transfer against a fork must privatize both touched pages
	// without disturbing the parent.
	c := m.Fork()
	over := make([]uint64, len(src))
	c.WriteWords(start, over)
	back := make([]uint64, len(src))
	m.ReadWords(start, back)
	for i := range src {
		if back[i] != src[i] {
			t.Fatalf("parent word %d clobbered by fork write: got %d, want %d", i, back[i], src[i])
		}
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := testMem(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range address")
		}
	}()
	m.ReadWord(arch.PA(2 * m.geom.PageSize))
}

// TestUnwrittenPagesReadZero: a page is allocated on its first write.
// Until then every read path returns zeros, the page does not count as
// shared, and a fork's first write to it starts from zeros too.
func TestUnwrittenPagesReadZero(t *testing.T) {
	m := testMem(t, 4)
	wpp := m.geom.WordsPerPage()
	m.WriteWord(arch.PA(2*m.geom.PageSize+8), 5)
	if got := m.ReadWord(arch.PA(m.geom.PageSize)); got != 0 {
		t.Fatalf("unwritten word reads %d", got)
	}
	line := []uint64{9, 9, 9, 9}
	m.ReadLine(arch.PA(m.geom.PageSize+32), line)
	for i, v := range line {
		if v != 0 {
			t.Fatalf("unwritten line word %d reads %d", i, v)
		}
	}
	// Frames 1 (unwritten) and 2 (written) in one transfer.
	words := make([]uint64, 2*wpp)
	for i := range words {
		words[i] = 9
	}
	m.ReadWords(arch.PA(m.geom.PageSize), words)
	for i, v := range words {
		want := uint64(0)
		if uint64(i) == wpp+1 {
			want = 5
		}
		if v != want {
			t.Fatalf("transfer word %d reads %d, want %d", i, v, want)
		}
	}
	m.Freeze()
	if got := m.SharedPages(); got != 0 {
		t.Fatalf("frozen image reports %d shared pages", got)
	}
	c := m.Fork()
	if got := c.SharedPages(); got != 1 {
		t.Fatalf("fork shares %d pages, want only the written one", got)
	}
	c.WriteWord(arch.PA(3*m.geom.PageSize), 7)
	if c.ReadWord(arch.PA(3*m.geom.PageSize)) != 7 || c.ReadWord(arch.PA(3*m.geom.PageSize+8)) != 0 {
		t.Fatal("fork's first write to an unwritten page did not start from zeros")
	}
	if m.ReadWord(arch.PA(3*m.geom.PageSize)) != 0 {
		t.Fatal("fork write reached the frozen image")
	}
}
