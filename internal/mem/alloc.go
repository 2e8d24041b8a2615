package mem

import (
	"fmt"
	"slices"

	"vcache/internal/arch"
)

// AllocPolicy selects how the frame allocator organizes its free lists.
type AllocPolicy uint8

const (
	// SingleList keeps one FIFO free list; freed frames are handed out
	// in arrival order, so the cache color of the previous life of a
	// frame rarely matches its next virtual address ("a virtual address
	// is assigned to a random physical page from the kernel's free page
	// list", the dominant cause of purges in the paper's config F).
	SingleList AllocPolicy = iota
	// ColoredLists keeps one free list per data-cache color and prefers
	// to hand out a frame whose last cache color matches the color of
	// the virtual address it is about to be mapped at, eliminating the
	// new-mapping purge when possible (the paper's "multiple free page
	// lists" suggestion).
	ColoredLists
)

func (p AllocPolicy) String() string {
	switch p {
	case SingleList:
		return "single-list"
	case ColoredLists:
		return "colored-lists"
	default:
		return fmt.Sprintf("AllocPolicy(%d)", uint8(p))
	}
}

// Allocator is the physical frame allocator. It is not safe for concurrent
// use; the simulated kernel is single-threaded (the paper's algorithm runs
// with interrupts disabled on a uniprocessor).
type Allocator struct {
	geom    arch.Geometry
	policy  AllocPolicy
	free    []arch.PFN       // SingleList FIFO
	byColor [][]arch.PFN     // ColoredLists FIFOs
	color   []arch.CachePage // by frame: last mapped color of a free frame, or NoCachePage
	nfree   int
	total   int
}

// NewAllocator creates an allocator over frames [reserved, total). The
// first `reserved` frames are never handed out (the kernel image).
func NewAllocator(geom arch.Geometry, total, reserved int, policy AllocPolicy) (*Allocator, error) {
	if reserved < 0 || reserved >= total {
		return nil, fmt.Errorf("mem: reserved %d out of range for %d frames", reserved, total)
	}
	a := &Allocator{
		geom:    geom,
		policy:  policy,
		byColor: make([][]arch.PFN, geom.DCachePages()),
		color:   make([]arch.CachePage, total),
		total:   total - reserved,
	}
	for f := reserved; f < total; f++ {
		a.free = append(a.free, arch.PFN(f))
	}
	for f := range a.color {
		a.color[f] = arch.NoCachePage
	}
	a.nfree = len(a.free)
	return a, nil
}

// Free returns the number of free frames.
func (a *Allocator) Free() int { return a.nfree }

// Total returns the number of allocatable frames.
func (a *Allocator) Total() int { return a.total }

// Alloc hands out a frame. wantColor is the data-cache color of the
// virtual page the frame is about to be mapped at; under ColoredLists the
// allocator prefers a frame whose previous mapping had the same color.
// Pass arch.NoCachePage when the color is unknown or irrelevant.
// It returns the frame and whether the frame's previous color matches
// wantColor (in which case the new mapping aligns with the old one and no
// consistency purge will be needed).
func (a *Allocator) Alloc(wantColor arch.CachePage) (arch.PFN, bool, error) {
	if a.nfree == 0 {
		return 0, false, fmt.Errorf("mem: out of physical memory (%d frames)", a.total)
	}
	if a.policy == ColoredLists && wantColor != arch.NoCachePage {
		if lst := a.byColor[wantColor]; len(lst) > 0 {
			f := lst[0]
			a.byColor[wantColor] = lst[1:]
			a.nfree--
			return f, true, nil
		}
	}
	// Fall back to the general list, then steal from any colored list.
	if len(a.free) > 0 {
		f := a.free[0]
		a.free = a.free[1:]
		a.nfree--
		prev := a.color[f]
		a.color[f] = arch.NoCachePage
		return f, prev != arch.NoCachePage && prev == wantColor, nil
	}
	for c := range a.byColor {
		if lst := a.byColor[c]; len(lst) > 0 {
			f := lst[0]
			a.byColor[c] = lst[1:]
			a.nfree--
			return f, arch.CachePage(c) == wantColor, nil
		}
	}
	return 0, false, fmt.Errorf("mem: free-list accounting corrupted")
}

// Clone returns an independent copy of the allocator, preserving the
// exact order of every free list so a forked machine recycles frames in
// the same sequence the original would have.
func (a *Allocator) Clone() *Allocator {
	a2 := *a
	a2.free = slices.Clone(a.free)
	a2.byColor = CloneLists(a.byColor)
	a2.color = slices.Clone(a.color)
	return &a2
}

// CloneLists returns a copy of lists made by CopyLists.
func CloneLists[E any](lists [][]E) [][]E {
	out := slices.Clone(lists)
	CopyLists(out, func(l *[]E) *[]E { return l })
	return out
}

// CopyLists replaces the list that list selects in every item with a
// copy. The copies share one new backing array, each cap-limited so an
// append to one reallocates it instead of overwriting the next.
func CopyLists[T, E any](items []T, list func(*T) *[]E) {
	n := 0
	for i := range items {
		n += len(*list(&items[i]))
	}
	all := make([]E, 0, n)
	for i := range items {
		l := list(&items[i])
		j := len(all)
		all = append(all, *l...)
		*l = all[j:len(all):len(all)]
	}
}

// FreeFrame returns a frame to the allocator. lastColor is the data-cache
// color the frame was last mapped at (arch.NoCachePage if it was never
// mapped); ColoredLists uses it to sort the frame into the right list.
func (a *Allocator) FreeFrame(f arch.PFN, lastColor arch.CachePage) {
	a.nfree++
	if a.policy == ColoredLists && lastColor != arch.NoCachePage {
		a.byColor[lastColor] = append(a.byColor[lastColor], f)
		return
	}
	if lastColor != arch.NoCachePage {
		a.color[f] = lastColor
	}
	a.free = append(a.free, f)
}
