package replay

import (
	"fmt"

	"vcache/internal/harness"
	"vcache/internal/kernel"
)

// The CXL-PCC scenario: two address spaces sharing pages under
// software-managed coherence, in the style of CXL's partially coherent
// device memory — a producer makes its writes visible with an explicit
// flush (publish) and a consumer discards its possibly-stale cached
// copy with an explicit purge (invalidate) before reading. The paper's
// consistency machinery would manage the same sharing automatically
// through faults; running this scenario beside configurations A–F
// shows what the explicit-maintenance discipline costs on the same
// virtually indexed cache, and the oracle checks every transfer either
// way.
//
// The scenario is expressed as a replay Program rather than a
// hand-written workload: the ops are the public record of exactly what
// it does, the executor is shared with trace replay, and a recorded
// run of the scenario shrinks under the fuzzer's minimizer like any
// other program.

// CXLPCCName is the scenario's workload name (no registered workload
// claims it, so its Program carries no Setup phase: the op list is
// self-contained).
const CXLPCCName = "cxl-pcc"

// cxlRounds is the producer/consumer round count at scale 1.0.
const cxlRounds = 48

// CXLPCC builds the scenario program for the given configuration
// label. rounds <= 0 selects the full-scale round count.
func CXLPCC(config string, rounds int) (*Program, error) {
	if rounds <= 0 {
		rounds = cxlRounds
	}
	var notes []string
	emit := func(format string, args ...any) {
		notes = append(notes, fmt.Sprintf(format, args...))
	}

	// Two address spaces. The producer also carries a text image so the
	// scenario touches the instruction-cache paths.
	emit("spawn pid=1 img=- text=0 heap=16")
	emit("spawn pid=2 img=- text=0 heap=16")

	// Phase 1 — message passing: the producer dirties a heap page,
	// publishes it with an explicit flush, and hands it to the consumer,
	// who invalidates any cached alias before reading and then writes
	// back into it. Symbolic addresses 0x900000+r name the kernel-chosen
	// receiver pages; the executor binds them at the send.
	for r := 0; r < rounds; r++ {
		pg := uint64(r % 8)
		hv := uint64(kernel.HeapVPN(pg))
		sym := uint64(0x900000 + r)
		emit("touch pid=1 page=%d words=64", pg)
		emit("flushp pid=1 vpn=%#x", hv)
		emit("send from=1 page=%d to=2 vpn=%#x", pg, sym)
		emit("purgep pid=2 vpn=%#x", sym)
		emit("readp pid=2 vpn=%#x words=32", sym)
		emit("writep pid=2 vpn=%#x words=16", sym)
		emit("flushp pid=2 vpn=%#x", sym)
	}

	// Phase 2 — a shared file mapping: both spaces map the same object
	// (frames shared through the buffer cache), the producer rewrites
	// pages through the file system, and each consumer purges its own
	// mapping of a page before re-reading it. Symbolic bases 0xA00000
	// and 0xB00000 are bound by the mapfile ops.
	const pages = 4
	emit("create pid=1 file=cxl/shared")
	emit("writec file=cxl/shared pages=%d", pages)
	emit("sync")
	emit("mapfile pid=1 file=cxl/shared obj=1 pages=%d vpn=0xa00000", pages)
	emit("mapfile pid=2 file=cxl/shared obj=1 pages=%d vpn=0xb00000", pages)
	for r := 0; r < rounds; r++ {
		pg := uint64(r % pages)
		emit("touch pid=1 page=%d words=32", pg)
		emit("writef pid=1 file=cxl/shared page=%d heap=%d", pg, pg)
		emit("sync")
		emit("purgep pid=1 vpn=%#x", 0xa00000+pg)
		emit("readp pid=1 vpn=%#x words=16", 0xa00000+pg)
		emit("purgep pid=2 vpn=%#x", 0xb00000+pg)
		emit("readp pid=2 vpn=%#x words=16", 0xb00000+pg)
	}
	// Phase 3 — a page shared read-write between the spaces, the
	// partially-coherent protocol proper: the producer republishes the
	// same page each round with an explicit flush, and the consumer
	// invalidates its cached copy before reading. Symbolic address
	// 0xC00000 names the consumer's kernel-chosen mapping.
	emit("touch pid=1 page=9 words=64")
	emit("sharep from=1 page=9 to=2 vpn=0xc00000")
	hv9 := uint64(kernel.HeapVPN(9))
	for r := 0; r < rounds; r++ {
		emit("touch pid=1 page=9 words=64")
		emit("flushp pid=1 vpn=%#x", hv9)
		emit("purgep pid=2 vpn=0xc00000")
		emit("readp pid=2 vpn=0xc00000 words=32")
	}

	emit("exit pid=2")
	emit("exit pid=1")

	return FromNotes(CXLPCCName, config, notes)
}

// CXLPCCWorkload wraps the scenario as a harness workload for the
// experiment tables, scaling the round count like the benchmarks scale
// their sizes.
func CXLPCCWorkload(config string, s harness.Scale) (harness.Workload, error) {
	pr, err := CXLPCC(config, s.N(cxlRounds))
	if err != nil {
		return harness.Workload{}, err
	}
	return pr.Workload(), nil
}

// FromNotes assembles a program from op notes in the replay grammar —
// the constructor scenario builders and tests use.
func FromNotes(name, config string, notes []string) (*Program, error) {
	pr := &Program{}
	pr.Origin.Workload = name
	pr.Origin.Config = config
	for i, n := range notes {
		op, err := ParseNote(n)
		if err != nil {
			return nil, fmt.Errorf("replay: note %d: %w", i, err)
		}
		pr.Ops = append(pr.Ops, op)
	}
	return pr, nil
}

// FromNotesMP is FromNotes for a multiprocessor origin: the program's
// kernel is built with the given CPU count, so "sched" ops can migrate
// processes across real per-CPU caches and TLBs.
func FromNotesMP(name, config string, cpus int, notes []string) (*Program, error) {
	pr, err := FromNotes(name, config, notes)
	if err != nil {
		return nil, err
	}
	pr.Origin.CPUs = cpus
	return pr, nil
}
