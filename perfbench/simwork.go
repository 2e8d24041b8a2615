package main

import (
	"fmt"
	"runtime"
	"time"

	"vcache/internal/arch"
	"vcache/internal/cache"
	"vcache/internal/harness"
	"vcache/internal/kernel"
	"vcache/internal/policy"
	"vcache/internal/sim"
	"vcache/internal/tlb"
	"vcache/internal/vm"
	"vcache/internal/workload"
)

// aliasWrites is the store count of the Section 2.5 microbenchmark, as
// `tables -micro` and vcachebench run it.
const aliasWrites = 200000

// The tables -mp scheduler: quantum and seed of the multiprocessor cell.
const (
	mpQuantum = 50000
	mpSeed    = 1
)

// simOp is one measured operation of a simulated workload.
type simOp struct {
	setup   time.Duration // kernel.New + Setup + counter reset (0 when not separable)
	run     time.Duration // the timed phase
	collect time.Duration // harness.Collect + the Stats() reads
	alloc   uint64        // Go bytes allocated by the timed phase
	cycles  uint64        // simulated cycles of the timed phase
	digest  string        // identity of the simulated result
	layers  *layerCounts  // exact simulated counts (cells only)
}

func (o simOp) latency() time.Duration { return o.setup + o.run + o.collect }

// simWorkload is a simulated workload driven through the layers' public
// functions.
type simWorkload struct {
	name string
	// image boots a kernel and performs setup, leaving every counter
	// reset: the state the first measured operation starts from. Its
	// boot and setup spans go to tr under parent.
	image func(tr *tracer, parent int) (*kernel.Kernel, error)
	// op performs one measured operation, with prof (when non-nil)
	// profiling its timed phase and tr (when non-nil) recording spans.
	op func(tr *tracer, prof *profiler) (simOp, error)
	// layers returns the exact per-layer simulated counts of one
	// operation, recording its spans into tr.
	layers func(tr *tracer) (*layerCounts, error)
}

// resetCounters zeroes every counter the harness resets before the timed
// phase and arms the scheduler, exactly as harness.Exec does after Setup.
func resetCounters(k *kernel.Kernel) {
	k.M.Clock.Reset()
	k.M.ResetStats()
	k.PM.ResetStats()
	k.VM.ResetStats()
	k.FS.ResetStats()
	k.Disk.ResetStats()
	k.Server.ResetStats()
	k.StartSched()
}

// cpu0 is CPU 0's data cache, instruction cache and TLB counters.
type cpu0 struct {
	DCache cache.Stats
	ICache cache.Stats
	TLB    tlb.Stats
}

func cpu0Stats(k *kernel.Kernel) cpu0 {
	return cpu0{DCache: k.M.DCache.Stats(), ICache: k.M.ICache.Stats(), TLB: k.M.TLB.Stats()}
}

// layerCounts is the simulated work of one timed phase: the Result plus
// the growth of CPU 0's cache and TLB counters across it.
type layerCounts struct {
	res   harness.Result
	cache cache.Stats
	tlb   tlb.Stats
}

func newLayerCounts(res harness.Result, pre, post cpu0) *layerCounts {
	d, t := post.DCache, post.TLB
	p, q := pre.DCache, pre.TLB
	return &layerCounts{
		res: res,
		cache: cache.Stats{
			Reads: d.Reads - p.Reads, Writes: d.Writes - p.Writes,
			Hits: d.Hits - p.Hits, Misses: d.Misses - p.Misses,
			WriteBacks:  d.WriteBacks - p.WriteBacks,
			PageFlushes: d.PageFlushes - p.PageFlushes, PagePurges: d.PagePurges - p.PagePurges,
		},
		tlb: tlb.Stats{Hits: t.Hits - q.Hits, Misses: t.Misses - q.Misses,
			Evictions: t.Evictions - q.Evictions, Shootdowns: t.Shootdowns - q.Shootdowns},
	}
}

// cell is one harness workload on one system configuration, driven the
// way harness.Exec drives it.
type cell struct {
	name  string
	kc    kernel.Config
	cfg   policy.Config
	w     harness.Workload
	scale harness.Scale
}

// image boots the system and performs setup, leaving every counter
// reset, with boot and setup spans recorded into tr under parent.
func (c cell) image(tr *tracer, parent int) (*kernel.Kernel, error) {
	t0 := time.Now()
	k, err := kernel.New(c.kc)
	t1 := time.Now()
	if err != nil {
		return nil, fmt.Errorf("%s boot: %w", c.name, err)
	}
	if err := c.w.Setup(k, c.scale); err != nil {
		return nil, fmt.Errorf("%s setup: %w", c.name, err)
	}
	resetCounters(k)
	tr.record("boot", parent, t0, t1)
	tr.record("setup", parent, t1, time.Now())
	return k, nil
}

// op performs one operation: boot, setup, the timed phase (profiled by
// prof when non-nil) and collection, with spans recorded into tr when
// non-nil. It returns the collected Result beside the operation.
func (c cell) op(tr *tracer, prof *profiler) (simOp, harness.Result, error) {
	var o simOp
	t0 := time.Now()
	root := tr.record("op", 0, t0, t0)
	k, err := c.image(tr, root)
	t2 := time.Now()
	if err != nil {
		return o, harness.Result{}, err
	}
	pre := cpu0Stats(k)
	a0 := totalAlloc()
	if err := prof.start(); err != nil {
		return o, harness.Result{}, err
	}
	t3 := time.Now()
	err = c.w.Run(k, c.scale)
	t4 := time.Now()
	if perr := prof.stop(); perr != nil {
		return o, harness.Result{}, perr
	}
	o.alloc = totalAlloc() - a0
	if err != nil {
		return o, harness.Result{}, fmt.Errorf("%s run: %w", c.name, err)
	}
	t5 := time.Now()
	res := harness.Collect(c.w.Name, c.cfg, k)
	post := cpu0Stats(k)
	t6 := time.Now()
	tr.end(root, t6)
	tr.record("run", root, t3, t4)
	tr.record("collect", root, t5, t6)
	o.setup, o.run, o.collect = t2.Sub(t0), t4.Sub(t3), t6.Sub(t5)
	o.cycles = res.Cycles
	o.digest = digest(struct {
		Result harness.Result
		CPU0   cpu0
	}{res, post})
	if res.OracleViolations != 0 {
		o.digest = "oracle-violation"
	}
	o.layers = newLayerCounts(res, pre, post)
	return o, res, nil
}

// kbuildWorkload is kernel-build × F, full scale, fast paths on and the
// oracle off (the production Table 4 cell), on cpus simulated CPUs; more
// than one CPU adds the tables -mp scheduler and the serial broadcast.
func kbuildWorkload(name string, cpus int) (simWorkload, error) {
	cfg, err := policy.ByLabel("F")
	if err != nil {
		return simWorkload{}, err
	}
	kc := kernel.DefaultConfig(cfg)
	kc.Machine.WithOracle = false
	if cpus > 1 {
		kc.Machine.CPUs = cpus
		kc.Sched = kernel.SchedConfig{Quantum: mpQuantum, Seed: mpSeed}
	}
	c := cell{name: name, kc: kc, cfg: cfg, w: workload.KernelBuild(), scale: workload.Full()}
	op := func(tr *tracer, prof *profiler) (simOp, error) {
		o, _, err := c.op(tr, prof)
		return o, err
	}
	layers := func(tr *tracer) (*layerCounts, error) {
		o, err := op(tr, nil)
		return o.layers, err
	}
	return simWorkload{name: name, image: c.image, op: op, layers: layers}, nil
}

// aliasSetup reproduces RunAliasMicro's set-up through the same public
// calls: one process mapping one physical page at two unaligned virtual
// addresses, touched once, counters reset.
func aliasSetup(cfg policy.Config, tr *tracer, parent int) (k *kernel.Kernel, space arch.SpaceID, va1, va2 arch.VA, err error) {
	t0 := time.Now()
	k, err = kernel.New(kernel.DefaultConfig(cfg))
	t1 := time.Now()
	if err != nil {
		return nil, 0, 0, 0, fmt.Errorf("alias boot: %w", err)
	}
	p, err := k.Spawn(nil, 0, 4)
	if err != nil {
		return nil, 0, 0, 0, fmt.Errorf("alias spawn: %w", err)
	}
	geom := k.Geometry()
	obj := k.VM.NewObject()
	base := arch.VPN(0x40000)
	second := base + arch.VPN(geom.DCachePages()) + 1 // one color off: unaligned
	r1, err := k.VM.MapObject(p.Space, obj, 0, 1, base, arch.NoCachePage, arch.ProtReadWrite, false, vm.KindShared)
	if err != nil {
		return nil, 0, 0, 0, fmt.Errorf("alias map: %w", err)
	}
	r2, err := k.VM.MapObject(p.Space, obj, 0, 1, second, arch.NoCachePage, arch.ProtReadWrite, false, vm.KindShared)
	if err != nil {
		return nil, 0, 0, 0, fmt.Errorf("alias map: %w", err)
	}
	va1, va2 = geom.PageBase(r1.Start), geom.PageBase(r2.Start)
	if err := k.M.Write(p.Space.ID, va1, 1); err != nil {
		return nil, 0, 0, 0, fmt.Errorf("alias touch: %w", err)
	}
	resetCounters(k)
	tr.record("boot", parent, t0, t1)
	tr.record("setup", parent, t1, time.Now())
	return k, p.Space.ID, va1, va2, nil
}

// aliasWorkload is the Section 2.5 microbenchmark with unaligned
// aliases, run as workload.RunAliasMicro(F, 200000, false) with the
// oracle on, as `tables -micro` ships it.
func aliasWorkload(name string) (simWorkload, error) {
	cfg, err := policy.ByLabel("F")
	if err != nil {
		return simWorkload{}, err
	}
	image := func(tr *tracer, parent int) (*kernel.Kernel, error) {
		k, _, _, _, err := aliasSetup(cfg, tr, parent)
		return k, err
	}
	op := func(tr *tracer, prof *profiler) (simOp, error) {
		var o simOp
		a0 := totalAlloc()
		if err := prof.start(); err != nil {
			return o, err
		}
		t0 := time.Now()
		r, err := workload.RunAliasMicro(cfg, aliasWrites, false)
		t1 := time.Now()
		if perr := prof.stop(); perr != nil {
			return o, perr
		}
		o.alloc = totalAlloc() - a0
		if err != nil {
			return o, fmt.Errorf("%s: %w", name, err)
		}
		tr.record("run", tr.record("op", 0, t0, t1), t0, t1)
		o.run, o.cycles, o.digest = t1.Sub(t0), r.Cycles, digest(r)
		return o, nil
	}
	// The per-layer counts come from the same loop replayed on the
	// reproduced set-up, whose counters are then readable; its cycle,
	// fault, flush and purge counts must equal RunAliasMicro's.
	layers := func(tr *tracer) (*layerCounts, error) {
		want, err := workload.RunAliasMicro(cfg, aliasWrites, false)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		t0 := time.Now()
		root := tr.record("replica", 0, t0, t0)
		k, space, va1, va2, err := aliasSetup(cfg, tr, root)
		if err != nil {
			return nil, err
		}
		pre := cpu0Stats(k)
		t1 := time.Now()
		for i := 0; i < aliasWrites; i++ {
			va := va1
			if i&1 == 1 {
				va = va2
			}
			if err := k.M.Write(space, va, uint64(i)); err != nil {
				return nil, fmt.Errorf("%s write %d: %w", name, i, err)
			}
		}
		for _, va := range []arch.VA{va1, va2} {
			if _, err := k.M.Read(space, va); err != nil {
				return nil, fmt.Errorf("%s read back: %w", name, err)
			}
		}
		t2 := time.Now()
		res := harness.Collect(name, cfg, k)
		t3 := time.Now()
		tr.record("replica.run", root, t1, t2)
		tr.record("collect", root, t2, t3)
		tr.end(root, t3)
		if err := res.CheckClean(); err != nil {
			return nil, err
		}
		if res.Cycles != want.Cycles || res.Machine.Faults != want.Faults ||
			res.PM.DFlushPages != want.DFlushes || res.PM.DPurgePages != want.DPurges {
			return nil, fmt.Errorf("%s: reproduced loop diverges from RunAliasMicro (cycles %d vs %d, faults %d vs %d)",
				name, res.Cycles, want.Cycles, res.Machine.Faults, want.Faults)
		}
		return newLayerCounts(res, pre, cpu0Stats(k)), nil
	}
	return simWorkload{name: name, image: image, op: op, layers: layers}, nil
}

// forkSample forks snap forkBatch times and returns the mean ms per
// fork. A batch spreads the garbage collections that forks trigger over
// its forks; a single fork is fast or slow by whether one is running.
func forkSample(snap *kernel.Snapshot, tr *tracer) float64 {
	t0 := time.Now()
	for i := 0; i < forkBatch; i++ {
		_ = snap.Fork()
	}
	t1 := time.Now()
	tr.record("forks", 0, t0, t1)
	return ms(t1.Sub(t0)) / forkBatch
}

// runSim measures a simulated workload: whole operations until the
// deadline, each preceded by a restore sample, so that set-up, restore
// and run samples all spread over the same window. Untraced, it reports
// the end-to-end metrics. Traced, it first takes the exact per-layer
// counts, the layer probes and the service probe, then alternates
// untraced operations with traced ones, which record spans and profile
// their timed phase, and reports the per-layer metrics.
func runSim(w simWorkload, o options, want string) (outcome, error) {
	out := outcome{m: newMetrics()}
	m := out.m
	var tr *tracer
	var prof *profiler
	if o.trace {
		tr = newTracer()
		lc, err := w.layers(tr)
		out.attempted++
		if err != nil {
			out.fail("%v", err)
		} else {
			lc.report(m)
		}
		if err := runProbes(m, o.seed); err != nil {
			return out, err
		}
		if err := serviceProbe(m, o.seed, &out); err != nil {
			return out, err
		}
		if prof, err = newProfiler(o.traceDir); err != nil {
			return out, err
		}
	}

	// The post-setup image every restore sample forks.
	img, err := w.image(nil, 0)
	if err != nil {
		return out, err
	}
	runtime.GC()
	t0 := time.Now()
	snap := img.Snapshot()
	snapMS := ms(time.Since(t0))
	tr.record("snapshot", 0, t0, time.Now())

	var setups, forks, runs, lats, nsPerCycle, allocs, plain, traced []float64
	var busy time.Duration
	end := time.Now().Add(o.seconds)
	for i := 0; i < 2 || time.Now().Before(end); i++ {
		runtime.GC()
		forks = append(forks, forkSample(snap, tr))
		runtime.GC()
		var opTr *tracer
		var opProf *profiler
		if o.trace && i%2 == 1 {
			opTr, opProf = tr, prof
		}
		op, err := w.op(opTr, opProf)
		out.attempted++
		if err != nil {
			out.fail("%v", err)
			continue
		}
		if !out.check(w.name, op.digest, want) {
			continue
		}
		setup := op.setup
		if setup == 0 {
			// The operation boots inside one call (RunAliasMicro): time
			// the same set-up on its own.
			t0 := time.Now()
			root := opTr.record("image", 0, t0, t0)
			if _, err := w.image(opTr, root); err != nil {
				return out, err
			}
			setup = time.Since(t0)
			opTr.end(root, time.Now())
		}
		if opTr != nil {
			traced = append(traced, ms(op.run))
		} else {
			plain = append(plain, ms(op.run))
		}
		setups = append(setups, setup.Seconds())
		busy += op.latency()
		runs = append(runs, ms(op.run))
		lats = append(lats, ms(op.latency()))
		nsPerCycle = append(nsPerCycle, float64(op.run.Nanoseconds())/float64(op.cycles))
		allocs = append(allocs, float64(op.alloc)/1e6)
	}

	if o.trace {
		m.set("span.boot_ms", median(tr.durations("boot")), "ms", len(tr.durations("boot")))
		m.set("span.setup_ms", median(tr.durations("setup")), "ms", len(tr.durations("setup")))
		m.set("span.run_ms", median(tr.durations("run")), "ms", len(tr.durations("run")))
		m.set("span.collect_ms", median(tr.durations("collect")), "ms", len(tr.durations("collect")))
		m.set("span.snapshot_ms", snapMS, "ms", 1)
		m.set("span.fork_ms", median(forks), "ms", len(forks))
		m.set("trace.overhead_frac", median(traced)/median(plain)-1, "ratio", len(traced))
		if err := prof.attribute(m); err != nil {
			return out, err
		}
		return out, tr.write(o.spanPath())
	}
	rss, err := peakRSSMB()
	if err != nil {
		return out, err
	}
	n := len(runs)
	m.set("ns_per_simcycle", median(nsPerCycle), "ns", n)
	m.set("run_ms", median(runs), "ms", n)
	m.set("setup_s", median(setups), "s", len(setups))
	m.set("restore_ms", median(forks), "ms", len(forks))
	m.set("alloc_mb", median(allocs), "MB", n)
	m.set("peak_rss_mb", rss, "MB", 1)
	m.set("req_per_s", float64(n)/busy.Seconds(), "1/s", n)
	m.set("latency_ms_p50", quantile(lats, 0.5), "ms", n)
	m.set("latency_ms_p90", quantile(lats, 0.9), "ms", n)
	return out, nil
}

// simCategories are the simulated-cycle categories reported per layer.
var simCategories = []sim.Category{sim.CatAccess, sim.CatFlush, sim.CatPurge, sim.CatFault, sim.CatDMA, sim.CatCompute}

// report sets the family-1 per-layer metrics.
func (lc *layerCounts) report(m *metrics) {
	r, c, t := lc.res, lc.cache, lc.tlb
	count := func(name string, v uint64) { m.set(name, float64(v), "count", 1) }
	count("cache.hits", c.Hits)
	count("cache.misses", c.Misses)
	m.set("cache.hit_ratio", ratio(c.Hits, c.Hits+c.Misses), "ratio", 1)
	count("cache.writebacks", c.WriteBacks)
	count("cache.page_flushes", c.PageFlushes)
	count("cache.page_purges", c.PagePurges)
	count("tlb.hits", t.Hits)
	count("tlb.misses", t.Misses)
	m.set("tlb.hit_ratio", ratio(t.Hits, t.Hits+t.Misses), "ratio", 1)
	count("tlb.shootdowns", t.Shootdowns)
	count("machine.reads", r.Machine.Reads)
	count("machine.writes", r.Machine.Writes)
	count("machine.faults", r.Machine.Faults)
	count("machine.dma_words", r.Machine.DMAWords)
	count("pmap.consistency_faults", r.PM.ConsistencyFaults)
	count("pmap.mapping_faults", r.PM.MappingFaults)
	count("pmap.dflush_pages", r.PM.DFlushPages)
	count("pmap.dpurge_pages", r.PM.DPurgePages)
	count("pmap.zero_fills", r.PM.ZeroFills)
	count("pmap.page_copies", r.PM.PageCopies)
	count("core.invocations", r.Ctl.Invocations)
	avoided := r.Ctl.FlushesAvoided + r.Ctl.PurgesAvoided
	m.set("core.avoided_ratio", ratio(avoided, r.Ctl.PageFlushes+r.Ctl.PagePurges+avoided), "ratio", 1)
	count("vm.zero_fill_faults", r.VM.ZeroFillFaults)
	count("vm.cow_copies", r.VM.COWCopies)
	count("vm.text_page_ins", r.VM.TextPageIns)
	m.set("fs.hit_ratio", ratio(r.FS.Hits, r.FS.Hits+r.FS.Misses), "ratio", 1)
	count("dma.reads", r.Disk.Reads)
	count("dma.writes", r.Disk.Writes)
	for _, cat := range simCategories {
		count("sim.cycles."+cat.String(), r.CyclesBy[cat])
	}
}
