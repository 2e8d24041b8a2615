package tlb

import (
	"math/bits"
	"slices"

	"vcache/internal/arch"
)

// Index maps (space, vpn) keys to int32 values >= 0: an open-addressed
// table of a power-of-two number of cells, at most half full, probed
// linearly from a multiplicative hash of the key. Cells hold their keys
// inline, so a probe never leaves the table; deletes shift the rest of
// the probe run back, so there are no tombstones. An insert that would
// pass half full doubles the table. The TLB finds its slots through
// one, the pmap its page-table records through another.
type Index struct {
	cells []cell
	shift uint // 64 - log2(len(cells)): the hash keeps the top bits
	n     int  // keys held
}

type cell struct {
	vpn   arch.VPN
	space arch.SpaceID
	val   int32 // value + 1; 0 marks an empty cell
}

// NewIndex returns an empty index that holds n keys without growing.
func NewIndex(n int) Index {
	logCells := bits.Len(uint(2*max(n, 1) - 1)) // 2^logCells >= 2*n
	return Index{cells: make([]cell, 1<<logCells), shift: uint(64 - logCells)}
}

// Clone returns an independent copy of the index.
func (x *Index) Clone() Index { return Index{slices.Clone(x.cells), x.shift, x.n} }

// Clear empties the index.
func (x *Index) Clear() { clear(x.cells); x.n = 0 }

func (x *Index) home(space arch.SpaceID, vpn arch.VPN) int {
	return int(((uint64(vpn) ^ uint64(space)<<40) * 0x9e3779b97f4a7c15) >> x.shift)
}

// find returns the cell holding (space, vpn), or else the empty cell
// that ends its probe run.
func (x *Index) find(space arch.SpaceID, vpn arch.VPN) int {
	mask := len(x.cells) - 1
	for h := x.home(space, vpn); ; h = (h + 1) & mask {
		if c := &x.cells[h]; c.val == 0 || c.vpn == vpn && c.space == space {
			return h
		}
	}
}

// Get returns the value of (space, vpn), or -1.
func (x *Index) Get(space arch.SpaceID, vpn arch.VPN) int32 {
	return x.cells[x.find(space, vpn)].val - 1
}

// Put stores v for (space, vpn), which must not be present.
func (x *Index) Put(space arch.SpaceID, vpn arch.VPN, v int32) {
	if 2*(x.n+1) > len(x.cells) {
		old := x.cells
		*x = NewIndex(len(old))
		for _, c := range old {
			if c.val != 0 {
				x.Put(c.space, c.vpn, c.val-1)
			}
		}
	}
	x.n++
	x.cells[x.find(space, vpn)] = cell{vpn, space, v + 1}
}

// Delete removes (space, vpn) and returns its value, or -1 if absent.
// Each later cell of the probe run moves into the hole when the hole
// lies between that cell's home and the cell, so every key stays
// reachable from its home.
func (x *Index) Delete(space arch.SpaceID, vpn arch.VPN) int32 {
	mask := len(x.cells) - 1
	hole := x.find(space, vpn)
	v := x.cells[hole].val - 1
	if v < 0 {
		return -1
	}
	x.n--
	for j := (hole + 1) & mask; x.cells[j].val != 0; j = (j + 1) & mask {
		if (j-x.home(x.cells[j].space, x.cells[j].vpn))&mask >= (j-hole)&mask {
			x.cells[hole] = x.cells[j]
			hole = j
		}
	}
	x.cells[hole] = cell{}
	return v
}
