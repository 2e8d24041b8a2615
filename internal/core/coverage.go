package core

import (
	"fmt"
	"strings"

	"vcache/internal/arch"
)

// This file defines the consistency-state coverage map the workload
// fuzzer (internal/fuzz) searches against: one cell per Table 2
// state×transition pair. A cell is (operation, role, prior state) —
// "role" distinguishes the table's two columns, the cache line the
// operation targets versus the other lines mapping the same physical
// page. Exercising every cell means every transition rule of the model
// has fired at least once under the oracle's watch.

// Role distinguishes the two columns of Table 2.
type Role uint8

const (
	// RoleTarget is the cache line selected by the operation's virtual
	// address.
	RoleTarget Role = iota
	// RoleOther is any other cache line mapping the same physical page.
	RoleOther
	numRoles
)

func (r Role) String() string {
	switch r {
	case RoleTarget:
		return "target"
	case RoleOther:
		return "other"
	default:
		return fmt.Sprintf("Role(%d)", uint8(r))
	}
}

// Cell identifies one Table 2 cell.
type Cell struct {
	Op    Operation
	Role  Role
	State State
}

func (c Cell) String() string {
	return fmt.Sprintf("%s/%s/%s", c.Op, c.Role, c.State.Long())
}

// index maps a cell to its slot in the counts array.
func (c Cell) index() int {
	return (int(c.Op)*int(numRoles)+int(c.Role))*int(numStates) + int(c.State)
}

// NumCells is the size of the full map: 6 operations × 2 roles × 4
// prior states.
const NumCells = int(numOperations) * int(numRoles) * int(numStates)

// Cells enumerates every cell in stable (operation, role, state) order.
func Cells() []Cell {
	out := make([]Cell, 0, NumCells)
	for _, op := range Operations {
		for r := RoleTarget; r < numRoles; r++ {
			for _, s := range States {
				out = append(out, Cell{Op: op, Role: r, State: s})
			}
		}
	}
	return out
}

// Coverage counts how many times each Table 2 cell has been exercised.
// It is observed from the pmap layer at every consistency-algorithm
// entry point; a nil *Coverage discards everything. Observe derives a
// cell from the page state alone, and no backend calls it for an
// uncached page, so a cell names the same event under every backend and
// one map may accumulate runs of several.
type Coverage struct {
	counts [NumCells]uint64
}

// NewCoverage returns an empty map.
func NewCoverage() *Coverage { return &Coverage{} }

// Note records one exercise of (op, role, state).
func (cv *Coverage) Note(op Operation, r Role, s State) {
	if cv == nil {
		return
	}
	cv.counts[Cell{Op: op, Role: r, State: s}.index()]++
}

// Observe derives and records every cell one algorithm invocation
// exercises, from the page-state record alone. For an operation with a
// real target cache page c the target cell is c's decoded state; the
// other-role cells are derived from the bit vectors (one observation per
// state class present among the remaining colors — the transition rules
// are per-state, so class presence is what coverage means). DMA
// operations carry no target page (c == arch.NoCachePage); their target
// and other transitions coincide (see OtherTransition), so each state
// class present is recorded under both roles. colors is the machine's
// cache-page count, needed to decide whether any other color is Empty.
func (cv *Coverage) Observe(op Operation, st *PageState, c arch.CachePage, colors uint64) {
	if cv == nil {
		return
	}
	if c == arch.NoCachePage {
		both := func(s State) {
			cv.Note(op, RoleTarget, s)
			cv.Note(op, RoleOther, s)
		}
		if st.Stale != 0 {
			both(Stale)
		}
		if st.CacheDirty {
			both(Dirty)
		} else if st.Mapped != 0 {
			both(Present)
		}
		if uint64((st.Mapped | st.Stale).Count()) < colors {
			both(Empty)
		}
		return
	}
	cv.Note(op, RoleTarget, st.StateOf(c))
	m, s := st.Mapped, st.Stale
	m.Clear(c)
	s.Clear(c)
	if s != 0 {
		cv.Note(op, RoleOther, Stale)
	}
	// CacheDirty implies exactly one mapped color: when it is not the
	// target, that other color is Dirty; any mapped others on a clean
	// page are Present.
	if st.CacheDirty && m != 0 {
		cv.Note(op, RoleOther, Dirty)
	} else if m != 0 {
		cv.Note(op, RoleOther, Present)
	}
	occupied := uint64((st.Mapped | st.Stale | 1<<uint(c)).Count())
	if occupied < colors {
		cv.Note(op, RoleOther, Empty)
	}
}

// Count returns how many times cell c has been exercised.
func (cv *Coverage) Count(c Cell) uint64 {
	if cv == nil {
		return 0
	}
	return cv.counts[c.index()]
}

// Covered returns how many distinct cells have been exercised.
func (cv *Coverage) Covered() int {
	if cv == nil {
		return 0
	}
	n := 0
	for _, c := range cv.counts {
		if c > 0 {
			n++
		}
	}
	return n
}

// Full reports whether every cell has been exercised.
func (cv *Coverage) Full() bool { return cv.Covered() == NumCells }

// Missing returns the unexercised cells in stable order.
func (cv *Coverage) Missing() []Cell {
	var out []Cell
	for _, c := range Cells() {
		if cv.Count(c) == 0 {
			out = append(out, c)
		}
	}
	return out
}

// Mask packs covered-cell membership into one word (NumCells = 48 fits
// a uint64), for cheap novelty tests: a run is coverage-novel against
// an accumulated map iff run.Mask() &^ acc.Mask() != 0.
func (cv *Coverage) Mask() uint64 {
	if cv == nil {
		return 0
	}
	var m uint64
	for i, c := range cv.counts {
		if c > 0 {
			m |= 1 << uint(i)
		}
	}
	return m
}

// Merge adds other's counts into cv.
func (cv *Coverage) Merge(other *Coverage) {
	if cv == nil || other == nil {
		return
	}
	for i := range cv.counts {
		cv.counts[i] += other.counts[i]
	}
}

// Reset zeroes every count.
func (cv *Coverage) Reset() {
	if cv == nil {
		return
	}
	cv.counts = [NumCells]uint64{}
}

func (cv *Coverage) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "coverage %d/%d", cv.Covered(), NumCells)
	if miss := cv.Missing(); len(miss) > 0 {
		parts := make([]string, len(miss))
		for i, c := range miss {
			parts[i] = c.String()
		}
		fmt.Fprintf(&b, " missing: %s", strings.Join(parts, ", "))
	}
	return b.String()
}
