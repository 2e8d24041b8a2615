package core

import (
	"fmt"
	"testing"
)

// TestBackendRegistry pins the backend kinds: each has its own name,
// and CMU is the zero value, so every configuration literal without a
// backend still denotes the paper's algorithm.
func TestBackendRegistry(t *testing.T) {
	seen := map[string]bool{}
	for k := range NumBackends {
		name := k.String()
		if name == fmt.Sprintf("BackendKind(%d)", uint8(k)) || seen[name] {
			t.Errorf("backend kind %d has no name of its own: %q", uint8(k), name)
		}
		seen[name] = true
	}
	var zero BackendKind
	if zero != BackendCMU {
		t.Fatal("the zero BackendKind must be CMU")
	}
}

// TestCMUBackendMatchesTable2 proves the table of the CMU backend (and
// of HYB's invalidate mode) — the base WriteBackVI variant — is Table 2
// verbatim: same Transition for every operation × state × role.
func TestCMUBackendMatchesTable2(t *testing.T) {
	for _, op := range Operations {
		for _, s := range States {
			if got, want := VariantTarget(WriteBackVI, op, s), TargetTransition(op, s); got != want {
				t.Errorf("CMU Target(%s, %s) = %v, want %v", op, s, got, want)
			}
			if got, want := VariantOther(WriteBackVI, op, s), OtherTransition(op, s); got != want {
				t.Errorf("CMU Other(%s, %s) = %v, want %v", op, s, got, want)
			}
		}
	}
}

// TestRLTBackendRewritesCPUMaintenance pins the RLT-VIVT table (the
// RLTVIVT variant): every CPU-operation cell whose action is a flush or
// purge becomes a remap with the same next state, and every other cell
// — DMA operations, explicit flush/purge requests, and cells with no
// maintenance action — is Table 2's. Device transfers read memory
// directly, so a reverse-lookup structure inside the cache cannot
// replace the write-back a DMA read needs.
func TestRLTBackendRewritesCPUMaintenance(t *testing.T) {
	if !RLTVIVT.VirtuallyIndexed() || !RLTVIVT.WriteBack() || !VariantHasOtherColumn(RLTVIVT) {
		t.Fatal("the RLT variant is a virtually indexed write-back cache with an unaligned column")
	}
	rewrites := 0
	for _, op := range Operations {
		for _, s := range States {
			for _, role := range []struct {
				got, base Transition
			}{
				{VariantTarget(RLTVIVT, op, s), TargetTransition(op, s)},
				{VariantOther(RLTVIVT, op, s), OtherTransition(op, s)},
			} {
				cpu := op == CPURead || op == CPUWrite
				maint := role.base.Action == DoFlush || role.base.Action == DoPurge
				if cpu && maint {
					rewrites++
					if role.got.Action != DoRemap {
						t.Errorf("RLT %s/%s: action %v, want remap", op, s, role.got.Action)
					}
					if role.got.Next != role.base.Next {
						t.Errorf("RLT %s/%s: next state %v, want %v (remap is functionally the same transition)",
							op, s, role.got.Next, role.base.Next)
					}
				} else if role.got != role.base {
					t.Errorf("RLT %s/%s: non-CPU-maintenance cell changed: %v != %v", op, s, role.got, role.base)
				}
			}
		}
	}
	if rewrites == 0 {
		t.Fatal("RLT variant rewrote no cells")
	}
}

// TestCoverageBackendBinding pins the backend-awareness of coverage
// maps: the kind is stamped into the mask's high byte (CMU stamps
// nothing, keeping every pre-backend mask value), maps of different
// backends refuse to merge, and the zero value is a CMU map.
func TestCoverageBackendBinding(t *testing.T) {
	cmu := NewCoverage()
	if cmu.Backend() != BackendCMU {
		t.Fatal("NewCoverage must build a CMU-bound map")
	}
	var zero Coverage
	if zero.Backend() != BackendCMU {
		t.Fatal("zero-value Coverage must be CMU-bound")
	}

	rlt := NewCoverageFor(BackendRLT)
	if rlt.Backend() != BackendRLT {
		t.Fatalf("Backend() = %v, want RLT", rlt.Backend())
	}
	c := Cell{Op: OpFlush, Role: RoleOther, State: Dirty}
	cmu.Note(c.Op, c.Role, c.State)
	rlt.Note(c.Op, c.Role, c.State)
	if cmu.Mask()>>maskBackendShift != 0 {
		t.Errorf("CMU mask carries a backend stamp: %#x", cmu.Mask())
	}
	if got := BackendKind(rlt.Mask() >> maskBackendShift); got != BackendRLT {
		t.Errorf("RLT mask stamp = %v, want RLT (mask %#x)", got, rlt.Mask())
	}
	// The cell bits themselves are backend-independent.
	if low := rlt.Mask() & (1<<maskBackendShift - 1); low != cmu.Mask() {
		t.Errorf("cell bits differ across backends: %#x vs %#x", low, cmu.Mask())
	}

	defer func() {
		if recover() == nil {
			t.Error("merging an RLT map into a CMU map should panic")
		}
	}()
	cmu.Merge(rlt)
}

func TestNewCoverageForUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewCoverageFor(NumBackends) should panic")
		}
	}()
	NewCoverageFor(NumBackends)
}
