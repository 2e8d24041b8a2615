package core

import "fmt"

// This file applies the consistency model to the other memory-system
// architectures of Section 3.3. Each variant is expressed as a rewrite of
// the base (virtually indexed, write-back) transitions:
//
//   - Write-through caches: memory is never stale with respect to the
//     cache, so the dirty state collapses into present and the flush
//     operation disappears.
//   - Physically indexed caches: all similarly mapped virtual addresses
//     naturally align, so the "other" column becomes irrelevant; only the
//     DMA operations create consistency work.
//   - DMA-through-cache systems: CPU-read/DMA-read fold into a single
//     read and CPU-write/DMA-write into a single write with the CPU
//     transitions.
//   - Set-associative caches and cache-coherent multiprocessors: the
//     rules are unchanged (hardware guarantees intra-set/inter-cache
//     consistency).
//   - A virtually indexed cache with a reverse-lookup synonym table (the
//     RLT-VIVT backend, arXiv 2108.00444): a CPU operation arriving
//     through a synonym address hits the table, which re-binds the line
//     instead of software flushing or purging it. Device-driven cells
//     are unchanged — DMA bypasses the cache, so software must still
//     clean for the device.

// Variant names a memory-system architecture the model applies to.
type Variant uint8

const (
	// WriteBackVI is the paper's machine: virtually indexed,
	// write-back (the base Table 2).
	WriteBackVI Variant = iota
	// WriteThroughVI is a virtually indexed write-through cache.
	WriteThroughVI
	// WriteBackPI is a physically indexed write-back cache.
	WriteBackPI
	// WriteThroughPI is a physically indexed write-through cache.
	WriteThroughPI
	// RLTVIVT is the paper's machine with a reverse-lookup synonym
	// table.
	RLTVIVT
)

// Variants lists them all for enumeration in tests.
var Variants = []Variant{WriteBackVI, WriteThroughVI, WriteBackPI, WriteThroughPI, RLTVIVT}

func (v Variant) String() string {
	switch v {
	case WriteBackVI:
		return "virtually-indexed write-back"
	case WriteThroughVI:
		return "virtually-indexed write-through"
	case WriteBackPI:
		return "physically-indexed write-back"
	case WriteThroughPI:
		return "physically-indexed write-through"
	case RLTVIVT:
		return "virtually-indexed write-back + reverse-lookup synonym table"
	default:
		return fmt.Sprintf("Variant(%d)", uint8(v))
	}
}

// VirtuallyIndexed reports whether unaligned aliases are possible under
// the variant.
func (v Variant) VirtuallyIndexed() bool {
	return v == WriteBackVI || v == WriteThroughVI || v == RLTVIVT
}

// WriteBack reports whether the variant has a dirty state.
func (v Variant) WriteBack() bool { return v == WriteBackVI || v == WriteBackPI || v == RLTVIVT }

// writeThroughRewrite maps a base transition into the write-through
// model: the dirty state is replaced by present, and flushes are
// eliminated (there is nothing dirty to write back).
func writeThroughRewrite(t Transition) Transition {
	if t.Next == Dirty {
		t.Next = Present
	}
	if t.Action == DoFlush {
		t.Action = NoAction
	}
	return t
}

// wtState maps a queried state into the write-through state space.
func wtState(s State) State {
	if s == Dirty {
		return Present
	}
	return s
}

// rltRewrite maps a base transition into the reverse-lookup model: a
// flush or purge driven by a CPU access becomes a remap with the same
// next state.
func rltRewrite(op Operation, t Transition) Transition {
	if (op == CPURead || op == CPUWrite) && (t.Action == DoFlush || t.Action == DoPurge) {
		t.Action = DoRemap
	}
	return t
}

// VariantTarget returns the target-line transition under the given
// architecture variant.
func VariantTarget(v Variant, op Operation, s State) Transition {
	switch v {
	case WriteBackVI:
		return TargetTransition(op, s)
	case WriteThroughVI:
		return writeThroughRewrite(TargetTransition(op, wtState(s)))
	case WriteBackPI:
		// Physically indexed: aliases always align, so the target
		// column applies unchanged — only DMA operations can create
		// inconsistencies, and a stale line (left by a DMA-write)
		// still needs its purge on the next CPU access.
		return TargetTransition(op, s)
	case WriteThroughPI:
		return writeThroughRewrite(TargetTransition(op, wtState(s)))
	case RLTVIVT:
		return rltRewrite(op, TargetTransition(op, s))
	}
	panic(fmt.Sprintf("core: unknown variant %v", v))
}

// VariantHasOtherColumn reports whether the "similarly mapped but
// unaligned" column of Table 2 exists for the variant: with a physically
// indexed cache all aliases align and the column is irrelevant.
func VariantHasOtherColumn(v Variant) bool { return v.VirtuallyIndexed() }

// VariantOther returns the unaligned-alias transition under the variant;
// it panics if the variant has no such column.
func VariantOther(v Variant, op Operation, s State) Transition {
	switch v {
	case WriteBackVI:
		return OtherTransition(op, s)
	case WriteThroughVI:
		return writeThroughRewrite(OtherTransition(op, wtState(s)))
	case RLTVIVT:
		return rltRewrite(op, OtherTransition(op, s))
	default:
		panic(fmt.Sprintf("core: variant %v has no unaligned-alias column", v))
	}
}

// FoldDMA maps the operations of a system whose DMA engine participates
// in the cache (Section 3.3 "DMA can access the cache"): CPU-read and
// DMA-read fold into a single read, CPU-write and DMA-write into a single
// write, both taking the CPU transitions.
func FoldDMA(op Operation) Operation {
	switch op {
	case DMARead:
		return CPURead
	case DMAWrite:
		return CPUWrite
	default:
		return op
	}
}
