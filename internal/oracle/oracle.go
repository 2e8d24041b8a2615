// Package oracle implements the staleness checker that validates the
// consistency model end to end.
//
// The oracle keeps a shadow copy of physical memory holding, for every
// word, the value of the most recent write in program order — whether the
// write came from the CPU (through the cache) or from a DMA device
// (directly to memory). Whenever the memory system delivers a value to a
// consumer — a CPU load, an instruction fetch, or a DMA device read — the
// oracle compares the delivered value against the shadow. Any mismatch is
// exactly the event the paper's model is designed to make impossible:
// "the memory system never transfers a stale value to either devices or
// the CPU" (Section 3.2).
//
// Intermediate inconsistencies (memory stale with respect to a dirty
// cache line, stale lines sitting in the cache, even a partially
// overwritten stale line being written back during a will_overwrite
// preparation) are all legal as long as no consumer observes them, so the
// oracle deliberately checks only the observable transfers.
package oracle

import (
	"fmt"
	"slices"

	"vcache/internal/arch"
)

// Consumer identifies who observed a transfer.
type Consumer uint8

const (
	// CPURead is a data load.
	CPURead Consumer = iota
	// CPUFetch is an instruction fetch.
	CPUFetch
	// DeviceRead is a DMA device reading memory.
	DeviceRead
)

func (c Consumer) String() string {
	switch c {
	case CPURead:
		return "cpu-read"
	case CPUFetch:
		return "cpu-fetch"
	default:
		return "device-read"
	}
}

// Violation records one observed stale transfer.
type Violation struct {
	Consumer Consumer
	PA       arch.PA
	Got      uint64
	Want     uint64
}

func (v Violation) String() string {
	return fmt.Sprintf("stale %s at PA %#x: got %#x, want %#x",
		v.Consumer, uint64(v.PA), v.Got, v.Want)
}

// Oracle is the staleness checker. A nil *Oracle is valid and disables
// all checking (used by the benchmark harness, where checking every word
// would dominate runtime).
type Oracle struct {
	// chunks holds the shadow in page-sized slices, each allocated on
	// its first RecordWrite; a nil chunk reads as zero, like an unwritten
	// page of mem.Memory. A machine that writes a few pages therefore
	// pays, and its Clone copies, only those pages.
	chunks     [][]uint64
	words      uint64
	violations []Violation
	checks     uint64
	// FailFast, when set, is invoked on the first violation (tests use
	// it to stop immediately with context).
	FailFast func(Violation)
}

// chunkShift is log2 of the words per shadow chunk: 512 words, one
// 4 KiB page of the HP 720.
const (
	chunkShift = 9
	chunkMask  = 1<<chunkShift - 1
)

// New returns an oracle shadowing a memory of the given word count.
func New(words int) *Oracle {
	return &Oracle{
		chunks: make([][]uint64, (words+chunkMask)>>chunkShift),
		words:  uint64(words),
	}
}

func (o *Oracle) idx(pa arch.PA) uint64 {
	i := uint64(pa) / arch.WordSize
	if i >= o.words {
		panic(rangeError(pa))
	}
	return i
}

// rangeError is the panic value for an address outside the shadow. It
// formats only when printed, which keeps idx — and with it RecordWrite,
// called on every store — within the compiler's inlining budget.
type rangeError arch.PA

func (e rangeError) Error() string {
	return fmt.Sprintf("oracle: PA %#x out of range", uint64(e))
}

// at returns the logically current value of word i.
func (o *Oracle) at(i uint64) uint64 {
	if ch := o.chunks[i>>chunkShift]; ch != nil {
		return ch[i&chunkMask]
	}
	return 0
}

// RecordWrite notes that a write of v to pa became the logically current
// value (CPU store or DMA device write).
func (o *Oracle) RecordWrite(pa arch.PA, v uint64) {
	if o == nil {
		return
	}
	i := o.idx(pa)
	ch := o.chunks[i>>chunkShift]
	if ch == nil {
		ch = make([]uint64, chunkMask+1)
		o.chunks[i>>chunkShift] = ch
	}
	ch[i&chunkMask] = v
}

// RecordWrites is RecordWrite of each vs[k] at pa plus k words, in order.
func (o *Oracle) RecordWrites(pa arch.PA, vs []uint64) {
	if o == nil {
		return
	}
	for k, v := range vs {
		o.RecordWrite(pa+arch.PA(k)*arch.WordSize, v)
	}
}

// Observe checks a value delivered by the memory system to a consumer.
func (o *Oracle) Observe(c Consumer, pa arch.PA, got uint64) {
	if o == nil {
		return
	}
	o.checks++
	want := o.at(o.idx(pa))
	if got != want {
		v := Violation{Consumer: c, PA: pa, Got: got, Want: want}
		o.violations = append(o.violations, v)
		if o.FailFast != nil {
			o.FailFast(v)
		}
	}
}

// ObserveWords is Observe of each got[k] at pa plus k words, in order.
func (o *Oracle) ObserveWords(c Consumer, pa arch.PA, got []uint64) {
	if o == nil {
		return
	}
	for k, v := range got {
		o.Observe(c, pa+arch.PA(k)*arch.WordSize, v)
	}
}

// Clone returns an independent copy of the oracle (snapshot/fork
// support); only written chunks are copied. A nil oracle clones to nil.
// FailFast is deliberately not carried over: it is a test hook bound to
// the run that installed it, not part of the machine image.
func (o *Oracle) Clone() *Oracle {
	if o == nil {
		return nil
	}
	chunks := make([][]uint64, len(o.chunks))
	for i, ch := range o.chunks {
		if ch != nil {
			chunks[i] = slices.Clone(ch)
		}
	}
	return &Oracle{
		chunks:     chunks,
		words:      o.words,
		violations: append([]Violation(nil), o.violations...),
		checks:     o.checks,
	}
}

// Checks returns how many transfers were checked.
func (o *Oracle) Checks() uint64 {
	if o == nil {
		return 0
	}
	return o.checks
}

// Violations returns every stale transfer observed so far.
func (o *Oracle) Violations() []Violation {
	if o == nil {
		return nil
	}
	return o.violations
}

// Expected returns the shadow (logically current) value at pa, for tests
// that want to assert on it directly.
func (o *Oracle) Expected(pa arch.PA) uint64 {
	if o == nil {
		return 0
	}
	return o.at(o.idx(pa))
}
