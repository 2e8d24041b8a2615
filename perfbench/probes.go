package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"vcache/internal/arch"
	"vcache/internal/kernel"
	"vcache/internal/policy"
	"vcache/internal/workload"
)

// Probe sizing: every probe is warmed with one batch, then timed over
// probeBatches batches, and reports the median ns per call.
const (
	probeBatches = 15
	// probePages exceeds the 96-entry TLB, so cycling through them
	// misses on every lookup.
	probePages  = 112
	probeWrites = 20000 // store count of the consistency-fault probe
)

// probeEnv is a warmed probe target: a fork of the kernel-build × F
// post-setup image with one large process (probePages heap pages, all
// mapped) and one compiler-sized process.
type probeEnv struct {
	k     *kernel.Kernel
	big   *kernel.Process
	small *kernel.Process
	geom  arch.Geometry
	rng   *rand.Rand
}

func (e *probeEnv) va(page, word uint64) arch.VA { return e.big.HeapVA(e.geom, page, word) }

func (e *probeEnv) pa(page, word uint64) (arch.PA, error) {
	f, ok := e.k.PM.Translate(e.big.Space.ID, kernel.HeapVPN(page))
	if !ok {
		return 0, fmt.Errorf("probe heap page %d is not mapped", page)
	}
	return e.geom.Translate(e.va(page, word), f), nil
}

// perCall times n calls of fn per batch and returns the median ns per
// call over the batches, after one untimed warm-up batch.
func perCall(n int, fn func(i int) error) (float64, error) {
	var xs []float64
	for b := 0; b <= probeBatches; b++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return 0, err
			}
		}
		if b > 0 {
			xs = append(xs, float64(time.Since(t0).Nanoseconds())/float64(n))
		}
	}
	return median(xs), nil
}

// perPrepared times single calls of fn, each after an untimed prep, and
// returns the median ns.
func perPrepared(n int, prep func(), fn func()) float64 {
	xs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		prep()
		t0 := time.Now()
		fn()
		xs = append(xs, float64(time.Since(t0).Nanoseconds()))
	}
	return median(xs)
}

// runProbes measures the layer probes: ns per call into one public
// function, warmed, on forks of the kernel-build × F post-setup image.
// The seed picks the pages and words the probes touch.
func runProbes(m *metrics, seed uint64) error {
	w, err := kbuildWorkload("probe", 1)
	if err != nil {
		return err
	}
	k, err := w.image(nil, 0)
	if err != nil {
		return err
	}
	snap := k.Snapshot()
	rng := rand.New(rand.NewPCG(seed, 0x70726f6265))
	newEnv := func() (*probeEnv, error) {
		k := snap.Fork()
		big, err := k.Spawn(nil, 0, probePages)
		if err != nil {
			return nil, err
		}
		for pg := uint64(0); pg < probePages; pg++ {
			if err := k.TouchHeap(big, pg, 1); err != nil {
				return nil, err
			}
		}
		small, err := k.Spawn(nil, 0, 12)
		if err != nil {
			return nil, err
		}
		return &probeEnv{k: k, big: big, small: small, geom: k.Geometry(), rng: rng}, nil
	}
	probes := []struct {
		name string
		run  func(e *probeEnv) (float64, error)
	}{
		{"cache.read_hit_ns", probeCacheHit},
		{"cache.read_miss_ns", probeCacheMiss},
		{"tlb.lookup_hit_ns", probeTLBHit},
		{"tlb.lookup_miss_ns", probeTLBMiss},
		{"machine.read_ns", probeMachineRead},
		{"machine.write_ns", probeMachineWrite},
		{"cache.flush_page_ns", func(e *probeEnv) (float64, error) { return probePageOp(e, true) }},
		{"cache.purge_page_ns", func(e *probeEnv) (float64, error) { return probePageOp(e, false) }},
		{"machine.bulk_zero_page_ns", probeBulkZero},
		{"machine.dma_write_page_ns", probeDMAWrite},
		{"kernel.syscall_ns", probeSyscall},
		{"kernel.fork_exit_ns", probeForkExit},
	}
	for _, p := range probes {
		e, err := newEnv()
		if err != nil {
			return fmt.Errorf("probe %s: %w", p.name, err)
		}
		v, err := p.run(e)
		if err != nil {
			return fmt.Errorf("probe %s: %w", p.name, err)
		}
		m.set(p.name, v, "ns", probeBatches)
	}
	v, err := probeConsistencyFault()
	if err != nil {
		return fmt.Errorf("probe pmap.consistency_fault_ns: %w", err)
	}
	m.set("pmap.consistency_fault_ns", v, "ns", probeBatches)
	return nil
}

// pickPage returns a seeded heap page in [lo, probePages).
func (e *probeEnv) pickPage(lo uint64) uint64 { return lo + e.rng.Uint64N(probePages-lo) }

func probeCacheHit(e *probeEnv) (float64, error) {
	pg := e.pickPage(0)
	va := e.va(pg, 0)
	pa, err := e.pa(pg, 0)
	if err != nil {
		return 0, err
	}
	c := e.k.M.DCache
	return perCall(20000, func(int) error { c.Read(va, pa); return nil })
}

// probeCacheMiss alternates two lines of different frames that index
// the same set of the direct-mapped cache, so every read misses.
func probeCacheMiss(e *probeEnv) (float64, error) {
	pg := e.pickPage(1)
	va1, va2 := e.va(0, 0), e.va(0, 0)+arch.VA(e.geom.DCacheSize)
	pa1, err := e.pa(0, 0)
	if err != nil {
		return 0, err
	}
	pa2, err := e.pa(pg, 0)
	if err != nil {
		return 0, err
	}
	c := e.k.M.DCache
	return perCall(20000, func(i int) error {
		if i&1 == 0 {
			c.Read(va1, pa1)
		} else {
			c.Read(va2, pa2)
		}
		return nil
	})
}

// probeTLBHit cycles through eight resident pages: every lookup hits
// through the index map.
func probeTLBHit(e *probeEnv) (float64, error) {
	base := e.pickPage(8) - 8
	t, space := e.k.M.TLB, e.big.Space.ID
	return perCall(20000, func(i int) error {
		t.Lookup(space, kernel.HeapVPN(base+uint64(i&7)), e.k.PM)
		return nil
	})
}

// probeTLBMiss cycles through more pages than the TLB holds: under LRU
// every lookup misses and walks the page table.
func probeTLBMiss(e *probeEnv) (float64, error) {
	t, space := e.k.M.TLB, e.big.Space.ID
	off := e.pickPage(0)
	return perCall(5000, func(i int) error {
		vpn := kernel.HeapVPN((off + uint64(i)) % probePages)
		if _, ok := t.Lookup(space, vpn, e.k.PM); !ok {
			return fmt.Errorf("heap vpn %#x is not mapped", vpn)
		}
		return nil
	})
}

// probeMachineRead steps word by word through one heap page, the shape
// of the kernel's heap loops.
func probeMachineRead(e *probeEnv) (float64, error) {
	pg, words := e.pickPage(0), e.geom.WordsPerPage()
	space := e.big.Space.ID
	return perCall(20000, func(i int) error {
		_, err := e.k.M.Read(space, e.va(pg, uint64(i)%words))
		return err
	})
}

func probeMachineWrite(e *probeEnv) (float64, error) {
	pg, words := e.pickPage(0), e.geom.WordsPerPage()
	space := e.big.Space.ID
	return perCall(20000, func(i int) error {
		return e.k.M.Write(space, e.va(pg, uint64(i)%words), uint64(i))
	})
}

// probePageOp times one data-cache page flush (or purge) of a page whose
// every line is resident and dirty.
func probePageOp(e *probeEnv, flush bool) (float64, error) {
	pg := e.pickPage(0)
	base := e.va(pg, 0)
	pa, err := e.pa(pg, 0)
	if err != nil {
		return 0, err
	}
	c := e.k.M.DCache
	cp, f := e.geom.DCachePageOf(base), e.geom.FrameOf(pa)
	line := e.geom.LineSize
	dirty := func() {
		for off := uint64(0); off < e.geom.PageSize; off += line {
			c.Write(base+arch.VA(off), pa+arch.PA(off), off)
		}
	}
	op := func() { c.PurgePage(cp, f) }
	if flush {
		op = func() { c.FlushPage(cp, f) }
	}
	for i := 0; i < 100; i++ {
		dirty()
		op()
	}
	return perPrepared(2000, dirty, op), nil
}

func probeBulkZero(e *probeEnv) (float64, error) {
	base, space := e.va(e.pickPage(0), 0), e.big.Space.ID
	return perCall(500, func(int) error {
		n, err := e.k.M.BulkZeroPage(space, base)
		if err == nil && n != e.geom.WordsPerPage() {
			err = fmt.Errorf("bulk zero fell back after %d words", n)
		}
		return err
	})
}

func probeDMAWrite(e *probeEnv) (float64, error) {
	pg := e.pickPage(0)
	pa, err := e.pa(pg, 0)
	if err != nil {
		return 0, err
	}
	data := make([]uint64, e.geom.WordsPerPage())
	for i := range data {
		data[i] = e.rng.Uint64()
	}
	return perCall(500, func(int) error { e.k.M.DMAWrite(pa, data); return nil })
}

func probeSyscall(e *probeEnv) (float64, error) {
	return perCall(500, func(int) error { return e.k.Syscall(e.small) })
}

func probeForkExit(e *probeEnv) (float64, error) {
	return perCall(100, func(int) error {
		c, err := e.k.Fork(e.small)
		if err != nil {
			return err
		}
		e.k.Exit(c)
		return nil
	})
}

// probeConsistencyFault is the alias microbenchmark's host time per
// write: every unaligned write is a consistency fault.
func probeConsistencyFault() (float64, error) {
	cfg, err := policy.ByLabel("F")
	if err != nil {
		return 0, err
	}
	var xs []float64
	for b := 0; b <= probeBatches; b++ {
		t0 := time.Now()
		if _, err := workload.RunAliasMicro(cfg, probeWrites, false); err != nil {
			return 0, err
		}
		if b > 0 {
			xs = append(xs, float64(time.Since(t0).Nanoseconds())/probeWrites)
		}
	}
	return median(xs), nil
}
