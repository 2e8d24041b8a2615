package mem

import (
	"slices"
	"testing"

	"vcache/internal/arch"
)

func newMem(t *testing.T, frames int) *Memory {
	t.Helper()
	m, err := New(arch.HP720(), frames)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMemoryWords(t *testing.T) {
	m := newMem(t, 4)
	if m.Frames() != 4 {
		t.Fatalf("Frames = %d", m.Frames())
	}
	m.WriteWord(0, 42)
	m.WriteWord(4096, 43)
	if got := m.ReadWord(0); got != 42 {
		t.Errorf("ReadWord(0) = %d", got)
	}
	if got := m.ReadWord(4096); got != 43 {
		t.Errorf("ReadWord(4096) = %d", got)
	}
	if got := m.ReadWord(8); got != 0 {
		t.Errorf("uninitialized word = %d", got)
	}
}

func TestMemoryLines(t *testing.T) {
	m := newMem(t, 2)
	src := []uint64{1, 2, 3, 4}
	m.WriteLine(64, src)
	dst := make([]uint64, 4)
	m.ReadLine(64, dst)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("line word %d = %d, want %d", i, dst[i], src[i])
		}
	}
	if m.ReadWord(64+8) != 2 {
		t.Error("WriteLine did not land word-wise")
	}
}

func TestMemoryOutOfRangePanics(t *testing.T) {
	m := newMem(t, 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range PA")
		}
	}()
	m.ReadWord(arch.PA(4096))
}

func TestMemoryRejectsBadConfig(t *testing.T) {
	if _, err := New(arch.HP720(), 0); err == nil {
		t.Error("zero frames accepted")
	}
	bad := arch.HP720()
	bad.PageSize = 3
	if _, err := New(bad, 4); err == nil {
		t.Error("invalid geometry accepted")
	}
}

func TestAllocatorSingleListFIFO(t *testing.T) {
	a, err := NewAllocator(arch.HP720(), 10, 2, SingleList)
	if err != nil {
		t.Fatal(err)
	}
	if a.Total() != 8 || a.Free() != 8 {
		t.Fatalf("Total=%d Free=%d", a.Total(), a.Free())
	}
	f1, _, err := a.Alloc(arch.NoCachePage)
	if err != nil {
		t.Fatal(err)
	}
	if f1 != 2 {
		t.Errorf("first frame = %d, want 2 (reserved skipped)", f1)
	}
	f2, _, _ := a.Alloc(arch.NoCachePage)
	if f2 != 3 {
		t.Errorf("second frame = %d, want 3", f2)
	}
	a.FreeFrame(f1, 5)
	// FIFO: remaining original frames come first, freed one last.
	var last arch.PFN
	for a.Free() > 0 {
		last, _, _ = a.Alloc(arch.NoCachePage)
	}
	if last != f1 {
		t.Errorf("freed frame should be reissued last, got %d", last)
	}
}

func TestAllocatorSingleListAlignedFlag(t *testing.T) {
	a, _ := NewAllocator(arch.HP720(), 4, 0, SingleList)
	f, _, _ := a.Alloc(arch.NoCachePage)
	a.FreeFrame(f, 7)
	// Drain to reach the recycled frame.
	for a.Free() > 1 {
		if _, _, err := a.Alloc(arch.NoCachePage); err != nil {
			t.Fatal(err)
		}
	}
	got, aligned, err := a.Alloc(7)
	if err != nil {
		t.Fatal(err)
	}
	if got != f {
		t.Fatalf("expected recycled frame %d, got %d", f, got)
	}
	if !aligned {
		t.Error("recycled frame with matching color should report aligned")
	}
}

func TestAllocatorColoredPreference(t *testing.T) {
	a, err := NewAllocator(arch.HP720(), 8, 0, ColoredLists)
	if err != nil {
		t.Fatal(err)
	}
	// Drain the fresh list, freeing frames with known colors.
	var frames []arch.PFN
	for a.Free() > 0 {
		f, _, _ := a.Alloc(arch.NoCachePage)
		frames = append(frames, f)
	}
	for i, f := range frames {
		a.FreeFrame(f, arch.CachePage(i%4))
	}
	// Asking for color 2 must return a frame whose last color was 2.
	f, aligned, err := a.Alloc(2)
	if err != nil {
		t.Fatal(err)
	}
	if !aligned {
		t.Error("colored allocator should hand out an aligned frame")
	}
	if f != frames[2] && f != frames[6] {
		t.Errorf("frame %d does not have color 2 history", f)
	}
	// A color with an empty list falls back to stealing.
	for i := 0; i < 7; i++ {
		if _, _, err := a.Alloc(2); err != nil {
			t.Fatal(err)
		}
	}
	if a.Free() != 0 {
		t.Errorf("Free = %d after draining", a.Free())
	}
}

func TestAllocatorExhaustion(t *testing.T) {
	a, _ := NewAllocator(arch.HP720(), 3, 1, SingleList)
	for i := 0; i < 2; i++ {
		if _, _, err := a.Alloc(arch.NoCachePage); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := a.Alloc(arch.NoCachePage); err == nil {
		t.Error("allocation beyond capacity should fail")
	}
}

func TestAllocatorRejectsBadReserve(t *testing.T) {
	if _, err := NewAllocator(arch.HP720(), 4, 4, SingleList); err == nil {
		t.Error("reserved == total accepted")
	}
	if _, err := NewAllocator(arch.HP720(), 4, -1, SingleList); err == nil {
		t.Error("negative reserve accepted")
	}
}

// TestAllocatorNeverDoubleAllocates drives random alloc/free traffic on
// both policies and checks a frame is never handed out twice while live.
func TestAllocatorNeverDoubleAllocates(t *testing.T) {
	for _, pol := range []AllocPolicy{SingleList, ColoredLists} {
		t.Run(pol.String(), func(t *testing.T) {
			a, _ := NewAllocator(arch.HP720(), 64, 0, pol)
			live := make(map[arch.PFN]bool)
			rng := uint64(12345)
			next := func(n int) int {
				rng = rng*6364136223846793005 + 1442695040888963407
				return int(rng>>33) % n
			}
			var owned []arch.PFN
			for i := 0; i < 5000; i++ {
				if next(2) == 0 && a.Free() > 0 {
					f, _, err := a.Alloc(arch.CachePage(next(64)))
					if err != nil {
						t.Fatal(err)
					}
					if live[f] {
						t.Fatalf("frame %d double-allocated", f)
					}
					live[f] = true
					owned = append(owned, f)
				} else if len(owned) > 0 {
					i := next(len(owned))
					f := owned[i]
					owned = append(owned[:i], owned[i+1:]...)
					delete(live, f)
					a.FreeFrame(f, arch.CachePage(next(64)))
				}
			}
			if a.Free()+len(owned) != a.Total() {
				t.Errorf("accounting: free %d + live %d != total %d", a.Free(), len(owned), a.Total())
			}
		})
	}
}

// TestCopyListsCapLimited copies lists into one backing array and grows
// each copy in turn: no append may reach a neighbour or the originals.
func TestCopyListsCapLimited(t *testing.T) {
	orig := [][]int{{1, 2}, {}, {3}, nil, {4, 5, 6}}
	lists := CloneLists(orig)
	for i := range lists {
		lists[i] = append(lists[i], 100+i)
	}
	want := [][]int{{1, 2, 100}, {101}, {3, 102}, {103}, {4, 5, 6, 104}}
	for i := range want {
		if !slices.Equal(lists[i], want[i]) {
			t.Fatalf("list %d = %v, want %v", i, lists[i], want[i])
		}
	}
	if !slices.Equal(orig[0], []int{1, 2}) || !slices.Equal(orig[4], []int{4, 5, 6}) {
		t.Fatalf("originals changed: %v", orig)
	}
}
