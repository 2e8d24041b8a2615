package core

import "testing"

// TestTable2Target checks the executable model cell-by-cell against the
// paper's Table 2, target-line column.
func TestTable2Target(t *testing.T) {
	want := map[Operation]map[State]Transition{
		CPURead: {
			Empty:   {NoAction, Present},
			Present: {NoAction, Present},
			Dirty:   {NoAction, Dirty},
			Stale:   {DoPurge, Present},
		},
		CPUWrite: {
			Empty:   {NoAction, Dirty},
			Present: {NoAction, Dirty},
			Dirty:   {NoAction, Dirty},
			Stale:   {DoPurge, Dirty},
		},
		DMARead: {
			Empty:   {NoAction, Empty},
			Present: {NoAction, Present},
			Dirty:   {DoFlush, Present},
			Stale:   {NoAction, Stale},
		},
		DMAWrite: {
			Empty:   {NoAction, Empty},
			Present: {NoAction, Stale},
			Dirty:   {DoPurge, Empty},
			Stale:   {NoAction, Stale},
		},
		OpPurge: {
			Empty: {NoAction, Empty}, Present: {NoAction, Empty},
			Dirty: {NoAction, Empty}, Stale: {NoAction, Empty},
		},
		OpFlush: {
			Empty: {NoAction, Empty}, Present: {NoAction, Empty},
			Dirty: {NoAction, Empty}, Stale: {NoAction, Empty},
		},
	}
	for op, cells := range want {
		for s, w := range cells {
			if got := TargetTransition(op, s); got != w {
				t.Errorf("target %v in %v: got %v, want %v", op, s, got, w)
			}
		}
	}
}

// TestTable2Other checks the unaligned-alias column.
func TestTable2Other(t *testing.T) {
	want := map[Operation]map[State]Transition{
		CPURead: {
			Empty:   {NoAction, Empty},
			Present: {NoAction, Present},
			Dirty:   {DoFlush, Empty},
			Stale:   {NoAction, Stale},
		},
		CPUWrite: {
			Empty:   {NoAction, Empty},
			Present: {NoAction, Stale},
			Dirty:   {DoFlush, Empty},
			Stale:   {NoAction, Stale},
		},
	}
	for op, cells := range want {
		for s, w := range cells {
			if got := OtherTransition(op, s); got != w {
				t.Errorf("other %v in %v: got %v, want %v", op, s, got, w)
			}
		}
	}
	// DMA does not go through the cache: target and other transitions
	// coincide for every state.
	for _, op := range []Operation{DMARead, DMAWrite} {
		for _, s := range States {
			if OtherTransition(op, s) != TargetTransition(op, s) {
				t.Errorf("%v: DMA other/target transitions differ in state %v", op, s)
			}
		}
	}
	// Cache control operations leave other lines alone.
	for _, op := range []Operation{OpPurge, OpFlush} {
		for _, s := range States {
			if got := OtherTransition(op, s); got.Next != s || got.Action != NoAction {
				t.Errorf("%v other transition modified state %v: %v", op, s, got)
			}
		}
	}
}

// TestNoTransitionLeavesStaleReadable encodes the correctness argument
// of Section 3.2 structurally: after any memory operation's transition,
// a line the operation would have consumed is never left in a state that
// hands out stale data — a stale target of a CPU access must have been
// purged, and a dirty unaligned line under any operation that reads
// memory must have been flushed or purged first.
func TestNoTransitionLeavesStaleReadable(t *testing.T) {
	for _, op := range []Operation{CPURead, CPUWrite} {
		tr := TargetTransition(op, Stale)
		if tr.Action != DoPurge {
			t.Errorf("%v of a stale target must purge, got %v", op, tr.Action)
		}
		if tr.Next == Stale {
			t.Errorf("%v left the target stale", op)
		}
	}
	// Reads that bypass the cache (DMA-read) must flush dirty data.
	if tr := TargetTransition(DMARead, Dirty); tr.Action != DoFlush {
		t.Errorf("DMA-read over dirty data must flush, got %v", tr.Action)
	}
	// A CPU access that fills from memory must have flushed any
	// unaligned dirty copy first.
	for _, op := range []Operation{CPURead, CPUWrite} {
		if tr := OtherTransition(op, Dirty); tr.Action != DoFlush {
			t.Errorf("%v with an unaligned dirty copy must flush it, got %v", op, tr.Action)
		}
	}
}

// TestAtMostOneDirty verifies the invariant the correctness argument
// leans on: "data corresponding to a physical address is dirty in at
// most one cache line (one for CPU-write, zero for DMA-write)". We model
// a set of lines (one target + n others) and apply every operation from
// every reachable state combination.
func TestAtMostOneDirty(t *testing.T) {
	type world struct {
		target State
		others [2]State
	}
	countDirty := func(w world) int {
		n := 0
		if w.target == Dirty {
			n++
		}
		for _, s := range w.others {
			if s == Dirty {
				n++
			}
		}
		return n
	}
	apply := func(w world, op Operation) world {
		w.target = TargetTransition(op, w.target).Next
		for i, s := range w.others {
			w.others[i] = OtherTransition(op, s).Next
		}
		return w
	}
	// Explore exhaustively from the power-up state.
	start := world{Empty, [2]State{Empty, Empty}}
	seen := map[world]bool{start: true}
	frontier := []world{start}
	for len(frontier) > 0 {
		w := frontier[0]
		frontier = frontier[1:]
		for _, op := range Operations {
			nw := apply(w, op)
			if countDirty(nw) > 1 {
				t.Fatalf("%v applied to %+v yields %+v with multiple dirty lines", op, w, nw)
			}
			if op == DMAWrite && countDirty(nw) != 0 {
				t.Fatalf("DMA-write left dirty lines: %+v", nw)
			}
			if !seen[nw] {
				seen[nw] = true
				frontier = append(frontier, nw)
			}
		}
	}
	if len(seen) < 4 {
		t.Fatalf("state exploration degenerate: %d worlds", len(seen))
	}
}

func TestVariantWriteThroughHasNoDirtyNoFlush(t *testing.T) {
	for _, op := range MemoryOperations {
		for _, s := range States {
			tt := VariantTarget(WriteThroughVI, op, s)
			if tt.Next == Dirty {
				t.Errorf("write-through target %v/%v reaches Dirty", op, s)
			}
			if tt.Action == DoFlush {
				t.Errorf("write-through target %v/%v requires a flush", op, s)
			}
			ot := VariantOther(WriteThroughVI, op, s)
			if ot.Next == Dirty || ot.Action == DoFlush {
				t.Errorf("write-through other %v/%v: %v", op, s, ot)
			}
		}
	}
}

func TestVariantPhysicallyIndexedHasNoOtherColumn(t *testing.T) {
	if VariantHasOtherColumn(WriteBackPI) || VariantHasOtherColumn(WriteThroughPI) {
		t.Error("physically indexed variants should have no unaligned-alias column")
	}
	if !VariantHasOtherColumn(WriteBackVI) {
		t.Error("the base model must have the alias column")
	}
	defer func() {
		if recover() == nil {
			t.Error("VariantOther on a PI variant should panic")
		}
	}()
	VariantOther(WriteBackPI, CPURead, Empty)
}

// TestVariantPIOnlyDMACreatesWork: with a physically indexed cache, only
// the DMA operations can require cache management on first access from
// the empty/present/dirty states.
func TestVariantPIOnlyDMACreatesWork(t *testing.T) {
	for _, s := range []State{Empty, Present, Dirty} {
		for _, op := range []Operation{CPURead, CPUWrite} {
			if tr := VariantTarget(WriteBackPI, op, s); tr.Action != NoAction {
				t.Errorf("PI %v in %v requires %v", op, s, tr.Action)
			}
		}
	}
	if tr := VariantTarget(WriteBackPI, DMARead, Dirty); tr.Action != DoFlush {
		t.Error("PI DMA-read over dirty data must still flush")
	}
	if tr := VariantTarget(WriteBackPI, DMAWrite, Dirty); tr.Action != DoPurge {
		t.Error("PI DMA-write under dirty data must still purge")
	}
}

// TestCMUBackendMatchesTable2 proves the base WriteBackVI variant — the
// table of the CMU backend — is Table 2 verbatim: same Transition for
// every operation × state × role.
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

func TestFoldDMA(t *testing.T) {
	if FoldDMA(DMARead) != CPURead || FoldDMA(DMAWrite) != CPUWrite {
		t.Error("DMA operations must fold onto CPU operations")
	}
	for _, op := range []Operation{CPURead, CPUWrite, OpPurge, OpFlush} {
		if FoldDMA(op) != op {
			t.Errorf("FoldDMA changed %v", op)
		}
	}
}

func TestStringers(t *testing.T) {
	if Empty.String() != "E" || Stale.Long() != "stale" {
		t.Error("state formatting")
	}
	if CPURead.String() != "CPU-read" || DMAWrite.String() != "DMA-write" {
		t.Error("operation formatting")
	}
	if DoFlush.String() != "flush" || NoAction.String() != "-" {
		t.Error("action formatting")
	}
	if (Transition{DoPurge, Present}).String() != "purge→P" {
		t.Errorf("transition formatting: %v", Transition{DoPurge, Present})
	}
	for _, v := range Variants {
		if v.String() == "" {
			t.Error("variant formatting")
		}
	}
}
