// Package check is a bounded exhaustive checker for the consistency
// implementation: it enumerates *every* sequence of memory-system
// operations up to a given depth on a deliberately tiny machine (64-byte
// pages, a 4-color data cache, one physical page mapped at three virtual
// addresses — an unaligned alias pair plus an aligned one) and verifies,
// via the oracle, that no operation ever observes stale data.
//
// This turns the paper's Section 3.2 correctness argument into a
// machine-checked statement over the *implementation* (CacheControl +
// pmap + real cache), not just the transition table: at depth 5 with 12
// operations it covers every interleaving of reads, writes, DMA in both
// directions, unmap/remap, zero-fill, page copy, and CPU migration on a
// two-processor machine — including all the delayed-inconsistency
// windows the lazy policies create and the cross-CPU coherence of the
// Section 3.3 multiprocessor.
package check

import (
	"fmt"

	"vcache/internal/arch"
	"vcache/internal/machine"
	"vcache/internal/mem"
	"vcache/internal/pmap"
	"vcache/internal/policy"
	"vcache/internal/sim"
)

// tinyGeometry is the smallest geometry worth checking: 8-word pages, a
// 4-page data cache, and a 2-page instruction cache.
func tinyGeometry() arch.Geometry {
	return arch.Geometry{
		PageSize:   64,
		LineSize:   16,
		DCacheSize: 256,
		ICacheSize: 128,
	}
}

// The fixed cast: one physical frame mapped at three virtual pages.
const (
	frameX = arch.PFN(4) // the frame under test
	frameY = arch.PFN(5) // scratch frame for copies

	vpnA = arch.VPN(0x10) // color 0, space 1
	vpnB = arch.VPN(0x11) // color 1, space 1 — unaligned alias of A
	vpnC = arch.VPN(0x14) // color 0, space 2 — aligned alias of A
)

// world is one instance of the tiny system.
type world struct {
	m    *machine.Machine
	p    *pmap.Pmap
	geom arch.Geometry
	seq  uint64
	// aMapped tracks whether the toggleable mapping is present.
	aMapped bool
}

// HandleFault resolves traps like the kernel does for resident pages.
func (w *world) HandleFault(f machine.Fault) error {
	vpn := w.geom.PageOf(f.VA)
	if f.Kind == machine.FaultModify {
		return w.p.ModifyFault(f.Space, vpn)
	}
	if _, ok := w.p.Translate(f.Space, vpn); !ok {
		return fmt.Errorf("check: fault on unmapped space %d vpn %#x", f.Space, uint64(vpn))
	}
	return w.p.Access(f.Space, vpn, f.Access, false)
}

func newWorld(feat policy.Features) (*world, error) {
	geom := tinyGeometry()
	mc := machine.Config{
		Geometry:   geom,
		Frames:     8,
		TLBSize:    8,
		DCacheWays: 1,
		ICacheWays: 1,
		CPUs:       2,
		WithOracle: true,
		Timing:     sim.HP720Timing(),
	}
	m, err := machine.New(mc)
	if err != nil {
		return nil, err
	}
	al, err := mem.NewAllocator(geom, 8, 6, mem.SingleList)
	if err != nil {
		return nil, err
	}
	w := &world{m: m, p: pmap.New(m, al, feat), geom: geom}
	m.SetFaultHandler(w)
	w.p.Enter(1, vpnA, frameX, arch.ProtReadWrite, pmap.KindUser)
	w.p.Enter(1, vpnB, frameX, arch.ProtReadWrite, pmap.KindUser)
	w.p.Enter(2, vpnC, frameX, arch.ProtReadWrite, pmap.KindUser)
	w.aMapped = true
	return w, nil
}

func (w *world) next() uint64 {
	w.seq++
	return w.seq
}

// Op is one step the checker can take.
type Op struct {
	Name string
	Run  func(w *world) error
}

// Ops returns the operation alphabet.
func Ops() []Op {
	va := func(geom arch.Geometry, vpn arch.VPN, word uint64) arch.VA {
		return geom.PageBase(vpn) + arch.VA(word*arch.WordSize)
	}
	write := func(space arch.SpaceID, vpn arch.VPN, guard func(*world) bool) func(*world) error {
		return func(w *world) error {
			if guard != nil && !guard(w) {
				return nil
			}
			return w.m.Write(space, va(w.geom, vpn, 2), w.next())
		}
	}
	read := func(space arch.SpaceID, vpn arch.VPN, guard func(*world) bool) func(*world) error {
		return func(w *world) error {
			if guard != nil && !guard(w) {
				return nil
			}
			_, err := w.m.Read(space, va(w.geom, vpn, 2))
			return err
		}
	}
	aPresent := func(w *world) bool { return w.aMapped }
	return []Op{
		{"writeA", write(1, vpnA, aPresent)},
		{"writeB", write(1, vpnB, nil)},
		{"writeC", write(2, vpnC, nil)},
		{"readA", read(1, vpnA, aPresent)},
		{"readB", read(1, vpnB, nil)},
		{"readC", read(2, vpnC, nil)},
		{"dmaWrite", func(w *world) error {
			w.p.PrepareDMAWrite(frameX)
			data := make([]uint64, w.geom.WordsPerPage())
			for i := range data {
				data[i] = w.next()
			}
			w.m.DMAWrite(w.geom.FrameBase(frameX), data)
			return nil
		}},
		{"dmaRead", func(w *world) error {
			w.p.PrepareDMARead(frameX)
			w.m.DMARead(w.geom.FrameBase(frameX), int(w.geom.WordsPerPage()))
			return nil
		}},
		{"toggleA", func(w *world) error {
			if w.aMapped {
				w.p.Remove(1, vpnA)
			} else {
				w.p.Enter(1, vpnA, frameX, arch.ProtReadWrite, pmap.KindUser)
			}
			w.aMapped = !w.aMapped
			return nil
		}},
		{"zeroX", func(w *world) error {
			return w.p.ZeroPage(frameX, vpnA)
		}},
		{"copyXY", func(w *world) error {
			return w.p.CopyPage(frameX, frameY, vpnB)
		}},
		{"cpuSwap", func(w *world) error {
			w.m.SetCurrentCPU(1 - w.m.CurrentCPU())
			return nil
		}},
	}
}

// Result summarizes one exploration.
type Result struct {
	Sequences int
	Steps     int
	Checks    uint64
}

// Explore runs every operation sequence of exactly `depth` steps under
// the given policy features, returning an error naming the first
// sequence that produced a stale transfer or a structural invariant
// violation.
func Explore(feat policy.Features, depth int) (Result, error) {
	ops := Ops()
	idx := make([]int, depth)
	var res Result
	for {
		w, err := newWorld(feat)
		if err != nil {
			return res, err
		}
		res.Sequences++
		for step, oi := range idx {
			op := ops[oi]
			if err := op.Run(w); err != nil {
				return res, fmt.Errorf("sequence %v failed at step %d (%s): %w",
					names(ops, idx), step, op.Name, err)
			}
			res.Steps++
			if v := w.m.Oracle.Violations(); len(v) != 0 {
				return res, fmt.Errorf("sequence %v: stale transfer after step %d (%s): %v",
					names(ops, idx), step, op.Name, v[0])
			}
			if err := w.p.CheckInvariants(); err != nil {
				return res, fmt.Errorf("sequence %v: invariant broken after step %d (%s): %w",
					names(ops, idx), step, op.Name, err)
			}
		}
		// Final sweep: every alias must read the current value.
		for _, op := range []int{3, 4, 5} {
			if err := ops[op].Run(w); err != nil {
				return res, fmt.Errorf("sequence %v: final %s: %w", names(ops, idx), ops[op].Name, err)
			}
		}
		if v := w.m.Oracle.Violations(); len(v) != 0 {
			return res, fmt.Errorf("sequence %v: stale transfer on final read: %v", names(ops, idx), v[0])
		}
		res.Checks += w.m.Oracle.Checks()

		// Odometer.
		i := depth - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(ops) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return res, nil
		}
	}
}

func names(ops []Op, idx []int) []string {
	out := make([]string, len(idx))
	for i, oi := range idx {
		out[i] = ops[oi].Name
	}
	return out
}
