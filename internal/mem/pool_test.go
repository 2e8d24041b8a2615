package mem

import (
	"testing"

	"vcache/internal/arch"
)

// poolTries bounds the loops below that wait for the page pool to hand
// a released page back: sync.Pool may drop a page (the race detector
// drops a quarter of them on purpose), so one try proves nothing.
const poolTries = 100

// fill writes pattern+w into every word of frame f.
func fill(m *Memory, f int, pattern uint64) {
	words := make([]uint64, m.wmask+1)
	for w := range words {
		words[w] = pattern + uint64(w)
	}
	m.WriteWords(arch.PA(uint64(f)*m.geom.PageSize), words)
}

// TestRecycledPageReadsZero: a page released full of a nonzero pattern
// and reused for a frame's first write reads zero everywhere but the
// written word.
func TestRecycledPageReadsZero(t *testing.T) {
	for range poolTries {
		old := testMem(t, 1)
		fill(old, 0, 0xdead0000)
		page := &old.pages[0][0]
		old.Release()

		m := testMem(t, 2)
		m.WriteWord(arch.PA(m.geom.PageSize+8), 7)
		if &m.pages[1][0] != page {
			continue
		}
		for w := uint64(0); w <= m.wmask; w++ {
			want := uint64(0)
			if w == 1 {
				want = 7
			}
			if got := m.ReadWord(arch.PA(m.geom.PageSize + w*arch.WordSize)); got != want {
				t.Fatalf("recycled page word %d = %#x, want %#x", w, got, want)
			}
		}
		return
	}
	t.Fatalf("no released page was reused in %d tries", poolTries)
}

// TestRecycledPageCopiesFrozenParent: a reused page serving a fork's
// copy-on-write copy holds the frozen parent's page, not the released
// pattern, and the parent keeps its own page.
func TestRecycledPageCopiesFrozenParent(t *testing.T) {
	parent := testMem(t, 2)
	fill(parent, 1, 100)
	parent.Freeze()
	for range poolTries {
		old := testMem(t, 1)
		fill(old, 0, 0xbeef0000)
		page := &old.pages[0][0]
		old.Release()

		child := parent.Fork()
		child.WriteWord(arch.PA(child.geom.PageSize), 9)
		if &child.pages[1][0] != page {
			continue
		}
		for w := uint64(0); w <= child.wmask; w++ {
			pa := arch.PA(child.geom.PageSize + w*arch.WordSize)
			want := 100 + w
			if w == 0 {
				want = 9
			}
			if got := child.ReadWord(pa); got != want {
				t.Fatalf("copy-on-write copy word %d = %d, want %d", w, got, want)
			}
			if got := parent.ReadWord(pa); got != 100+w {
				t.Fatalf("frozen parent word %d = %d, want %d", w, got, 100+w)
			}
		}
		return
	}
	t.Fatalf("no released page was reused in %d tries", poolTries)
}

// TestReleaseKeepsSharedPages: a fork releases only the pages it
// copied; the pages it still shares with its unfrozen parent stay out
// of the pool, so later zeroed pages never clobber the parent.
func TestReleaseKeepsSharedPages(t *testing.T) {
	parent := testMem(t, 2)
	fill(parent, 0, 500)
	fill(parent, 1, 600)
	child := parent.Fork()
	child.WriteWord(0, 1)
	child.Release()
	for range poolTries {
		m := testMem(t, 2)
		m.WriteWord(0, 0)
		m.WriteWord(arch.PA(m.geom.PageSize), 0)
	}
	for f, base := range []uint64{500, 600} {
		for w := uint64(0); w <= parent.wmask; w++ {
			pa := arch.PA(uint64(f)*parent.geom.PageSize + w*arch.WordSize)
			if got := parent.ReadWord(pa); got != base+w {
				t.Fatalf("parent frame %d word %d = %d after the fork's release, want %d", f, w, got, base+w)
			}
		}
	}
}

// TestAccessAfterReleasePanics: a released memory is unusable, so a
// stale reference fails loudly instead of reading a recycled page.
func TestAccessAfterReleasePanics(t *testing.T) {
	for name, access := range map[string]func(m *Memory){
		"read":  func(m *Memory) { m.ReadWord(0) },
		"write": func(m *Memory) { m.WriteWord(0, 1) },
		"line":  func(m *Memory) { m.ReadLine(0, make([]uint64, 4)) },
		"words": func(m *Memory) { m.WriteWords(0, []uint64{1, 2}) },
	} {
		m := testMem(t, 2)
		m.WriteWord(0, 42)
		m.Release()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after Release did not panic", name)
				}
			}()
			access(m)
		}()
	}
}

// TestReleaseFrozenPanics: a snapshot image is never released, because
// forks that outlive it read its pages.
func TestReleaseFrozenPanics(t *testing.T) {
	m := testMem(t, 2)
	m.WriteWord(0, 42)
	m.Freeze()
	defer func() {
		if recover() == nil {
			t.Fatal("Release of a frozen image did not panic")
		}
		if got := m.ReadWord(0); got != 42 {
			t.Fatalf("frozen image reads %d after the refused Release, want 42", got)
		}
	}()
	m.Release()
}

// TestNewPageDropsWrongLength: a pooled page of another length is never
// handed out.
func TestNewPageDropsWrongLength(t *testing.T) {
	for range poolTries {
		FreePage(make([]uint64, 8))
		if p := NewPage(16, nil); len(p) != 16 {
			t.Fatalf("NewPage(16) returned %d words", len(p))
		}
	}
}
