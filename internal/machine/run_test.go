package machine

import (
	"fmt"
	"reflect"
	"testing"

	"vcache/internal/arch"
	"vcache/internal/cache"
	"vcache/internal/oracle"
	"vcache/internal/sim"
	"vcache/internal/tlb"
)

// Differential tests for the kernel's page loops: the cross-space
// BulkCopyPage and the Strided run, each pitted against the plain word
// loop on a twin machine built with DisableFastPaths. Every observable
// must match: the memory image, each cache's contents (per-line copy
// and dirty counts, then the image once every line is flushed), cache,
// TLB and machine statistics, per-category cycles, and the oracle's
// checks, violations and shadow memory.

const diffFrames = 64

// spaceWalker is a page table keyed by address space as well as page.
type spaceWalker map[spaceKey]tlb.Entry

type spaceKey struct {
	space arch.SpaceID
	vpn   arch.VPN
}

func (w spaceWalker) Walk(space arch.SpaceID, vpn arch.VPN) (tlb.Entry, bool) {
	e, ok := w[spaceKey{space, vpn}]
	return e, ok
}

// twinConfig shapes both machines of a differential pair.
type twinConfig struct {
	cpus     int
	ways     int
	policy   cache.WritePolicy
	indexing cache.Indexing
	oracle   bool
}

// dcacheVariants are the data caches the strided run must be exact on:
// it has no cache.CanBulk guard, so the line-access primitive is
// exercised on every Section 3.3 variant, not only the paper's.
var dcacheVariants = []struct {
	name     string
	ways     int
	policy   cache.WritePolicy
	indexing cache.Indexing
}{
	{"direct", 1, cache.WriteBack, cache.VirtualIndex},
	{"2way", 2, cache.WriteBack, cache.VirtualIndex},
	{"write-through", 1, cache.WriteThrough, cache.VirtualIndex},
	{"physical", 1, cache.WriteBack, cache.PhysicalIndex},
}

// buildTwin boots one side of a pair. Pages in pending are unmapped
// until their first fault, whose handler installs them and then calls
// onFault (when set) — the hook a test uses to disturb other
// translations from inside a fault. A modify trap is cleared on fault.
func buildTwin(t *testing.T, tc twinConfig, noFast bool, table, pending spaceWalker, onFault func(*Machine, Fault)) *Machine {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Frames = diffFrames
	cfg.CPUs = tc.cpus
	cfg.DCacheWays = tc.ways
	cfg.DCachePolicy = tc.policy
	cfg.DCacheIndexing = tc.indexing
	cfg.WithOracle = tc.oracle
	cfg.DisableFastPaths = noFast
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := spaceWalker{}
	for k, e := range table {
		w[k] = e
	}
	m.SetWalker(w)
	m.SetFaultHandler(&recordHandler{fix: func(f Fault) error {
		k := spaceKey{f.Space, m.Geom.PageOf(f.VA)}
		if e, ok := w[k]; ok && e.NeedModTrap {
			e.NeedModTrap = false
			w[k] = e
		} else if e, ok := pending[k]; ok && w[k] == (tlb.Entry{}) {
			w[k] = e
		} else {
			return fmt.Errorf("unexpected %v", f)
		}
		m.InvalidateTLB(k.space, k.vpn)
		if onFault != nil {
			onFault(m, f)
		}
		return nil
	}})
	return m
}

// usedFrames are the frames the tests map.
var usedFrames = []arch.PFN{7, 9, 12, 20, 30, 31, 33, 40}

// observation is everything a differential test compares.
type observation struct {
	Stats      Stats
	Cycles     []uint64
	DCache     []cache.Stats
	ICache     []cache.Stats
	TLB        []tlb.Stats
	Lines      []byte // per cache, color and line of a used frame: absent, clean or dirty
	Memory     []uint64
	Flushed    []uint64 // the memory image once every cached line is flushed
	Checks     uint64
	Violations []oracle.Violation
	Shadow     []uint64 // the oracle's current value of every word of a used frame
}

// observe records m's observables. It flushes every cache, so it must be
// the last thing done with m.
func observe(m *Machine) observation {
	var o observation
	o.Stats = m.stats
	for c := sim.CatAccess; c <= sim.CatRLTEvict; c++ {
		o.Cycles = append(o.Cycles, m.Clock.CyclesIn(c))
	}
	o.Checks = m.Oracle.Checks()
	o.Violations = m.Oracle.Violations()
	for _, f := range usedFrames {
		for off := uint64(0); off < m.Geom.PageSize; off += arch.WordSize {
			o.Shadow = append(o.Shadow, m.Oracle.Expected(m.Geom.FrameBase(f)+arch.PA(off)))
		}
	}
	image := func() []uint64 {
		img := make([]uint64, 0, diffFrames*m.Geom.WordsPerPage())
		for pa := arch.PA(0); pa < arch.PA(diffFrames*m.Geom.PageSize); pa += arch.WordSize {
			img = append(img, m.Mem.ReadWord(pa))
		}
		return img
	}
	o.Memory = image()
	for _, cpu := range m.cpus {
		o.DCache = append(o.DCache, cpu.DCache.Stats())
		o.ICache = append(o.ICache, cpu.ICache.Stats())
		o.TLB = append(o.TLB, cpu.TLB.Stats())
	}
	// Flush every line a used frame can occupy, one at a time: whether
	// the flush found the line, and whether it wrote it back, is that
	// line's state. A cache holding nothing of the frame (its residency
	// count, itself checked against a full scan in the cache package)
	// has every such line absent.
	for _, cpu := range m.cpus {
		for _, c := range []*cache.Cache{cpu.DCache, cpu.ICache} {
			for _, f := range usedFrames {
				if !c.Holds(f) {
					o.Lines = append(o.Lines, make([]byte, c.CachePages()*m.Geom.PageSize/m.Geom.LineSize)...)
					continue
				}
				for cp := uint64(0); cp < c.CachePages(); cp++ {
					for off := uint64(0); off < m.Geom.PageSize; off += m.Geom.LineSize {
						wb := c.Stats().WriteBacks
						state := byte(0)
						if c.FlushLine(m.Geom.PageBase(arch.VPN(cp))+arch.VA(off), m.Geom.FrameBase(f)+arch.PA(off)) {
							state = 1
						}
						if c.Stats().WriteBacks != wb {
							state = 2
						}
						o.Lines = append(o.Lines, state)
					}
				}
			}
		}
	}
	o.Flushed = image()
	return o
}

// compareObservations reports every field on which fast and ref differ.
func compareObservations(t *testing.T, fast, ref observation) {
	t.Helper()
	fv, rv := reflect.ValueOf(fast), reflect.ValueOf(ref)
	for i := 0; i < fv.NumField(); i++ {
		if !reflect.DeepEqual(fv.Field(i).Interface(), rv.Field(i).Interface()) {
			name := fv.Type().Field(i).Name
			if fv.Field(i).Kind() == reflect.Slice && fv.Field(i).Len() > 16 {
				t.Errorf("%s differs between the fast path and the word loop", name)
			} else {
				t.Errorf("%s: fast %+v, word loop %+v", name, fv.Field(i).Interface(), rv.Field(i).Interface())
			}
		}
	}
}

// Page layout shared by the tests. Space 1 is a user space, space 0 the
// kernel; the comments give each page's cache color (vpn mod 64).
const (
	runVPN     arch.VPN = 5  // color 5, frame 7: the strided run's page
	aliasVPN   arch.VPN = 6  // color 6, frame 7: an unaligned alias of it
	nextVPN    arch.VPN = 7  // color 7, frame 12: where a run from aliasVPN leaves the page
	uncVPN     arch.VPN = 9  // color 9, frame 9: uncached
	srcVPN     arch.VPN = 32 // color 32, frame 20 (kernel space): copy source
	dstVPN     arch.VPN = 16 // color 16, frame 30: copy destination
	sameColVPN arch.VPN = 96 // color 32, frame 31: same color as the source
	victimVPN  arch.VPN = 80 // color 16, frame 40: conflicts with the destination
)

func userTable(extra spaceWalker) spaceWalker {
	w := spaceWalker{
		{1, runVPN}:     {PFN: 7, Prot: arch.ProtReadWrite},
		{1, aliasVPN}:   {PFN: 7, Prot: arch.ProtReadWrite},
		{1, nextVPN}:    {PFN: 12, Prot: arch.ProtReadWrite},
		{1, uncVPN}:     {PFN: 9, Prot: arch.ProtReadWrite, Uncached: true},
		{0, srcVPN}:     {PFN: 20, Prot: arch.ProtReadWrite},
		{1, dstVPN}:     {PFN: 30, Prot: arch.ProtReadWrite},
		{1, sameColVPN}: {PFN: 31, Prot: arch.ProtReadWrite},
		{1, victimVPN}:  {PFN: 40, Prot: arch.ProtReadWrite},
	}
	for k, e := range extra {
		w[k] = e
	}
	return w
}

// wordVA is the address of word i of page vpn.
func wordVA(m *Machine, vpn arch.VPN, i uint64) arch.VA {
	return m.Geom.PageBase(vpn) + arch.VA(i*arch.WordSize)
}

// primeOp is one access of a priming sequence.
type primeOp struct {
	cpu   int
	space arch.SpaceID
	vpn   arch.VPN
	word  uint64
	write bool
}

// prime runs the same accesses on a machine of either side, leaving
// dirty lines, conflicting lines and (on two CPUs) peer copies behind.
func prime(t *testing.T, m *Machine, ops []primeOp) {
	t.Helper()
	for i, op := range ops {
		if op.cpu >= m.NumCPUs() {
			continue
		}
		m.SetCurrentCPU(op.cpu)
		var err error
		if op.write {
			err = m.Write(op.space, wordVA(m, op.vpn, op.word), uint64(1000+i))
		} else {
			_, err = m.Read(op.space, wordVA(m, op.vpn, op.word))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	m.SetCurrentCPU(0)
}

// linesOf returns one access per line of page vpn from word start on:
// writes to the even lines, reads of the odd ones.
func linesOf(m *Machine, cpu int, space arch.SpaceID, vpn arch.VPN, start uint64) []primeOp {
	var ops []primeOp
	for w := start; w < m.Geom.WordsPerPage(); w += m.Geom.WordsPerLine() {
		ops = append(ops, primeOp{cpu, space, vpn, w, (w/m.Geom.WordsPerLine())%2 == 0})
	}
	return ops
}

// wordAccess is one iteration of the reference word loop, in space 1.
func wordAccess(m *Machine, va arch.VA, acc Access, next func() uint64) error {
	var err error
	switch acc {
	case AccessRead:
		_, err = m.Read(1, va)
	case AccessWrite:
		err = m.Write(1, va, next())
	default:
		_, err = m.Fetch(1, va)
	}
	return err
}

// primeRun leaves the state a strided run on runVPN must respect. CPU 0
// writes the unaligned alias (stale data for the oracle to catch) and
// lines that conflict with the run page's sets. Peer 1 holds dirty and
// clean lines of the run's frame and a few dirty lines of its unaligned
// alias, which count toward its residency but no probe of the run ever
// finds. On four CPUs peer 2 holds nothing of the frame (other frames
// only) and peer 3 only clean lines of it, some of them.
func primeRun(t *testing.T, m *Machine) {
	t.Helper()
	wpl := m.Geom.WordsPerLine()
	ops := linesOf(m, 1, 1, runVPN, 0)
	ops = append(ops, linesOf(m, 0, 1, aliasVPN, 3)...)
	ops = append(ops, linesOf(m, 0, 1, nextVPN, 1)...)
	ops = append(ops, primeOp{0, 1, uncVPN, 2, true}, primeOp{1, 1, runVPN, 9, false})
	for l := uint64(40); l < 44; l++ {
		ops = append(ops, primeOp{1, 1, aliasVPN, l*wpl + 1, true})
	}
	ops = append(ops, linesOf(m, 2, 1, nextVPN, 2)...)
	for l := uint64(1); l < 64; l += 4 {
		ops = append(ops, primeOp{3, 1, runVPN, l * wpl, false})
	}
	prime(t, m, ops)
}

func TestStridedMatchesWordLoop(t *testing.T) {
	type runCase struct {
		name   string
		vpn    arch.VPN
		start  uint64
		stride uint64
		n      uint64
	}
	words := uint64(512)
	cases := []runCase{
		{name: "n=1", vpn: runVPN, stride: 1, n: 1},
		{name: "stride0", vpn: runVPN, start: 5, stride: 0, n: 9},
	}
	for _, s := range []uint64{1, 2, 3, 4, 8, 512} {
		cases = append(cases, runCase{name: fmt.Sprintf("stride%d", s), vpn: runVPN, stride: s, n: (words + s - 1) / s})
	}
	cases = append(cases,
		runCase{name: "offset", vpn: runVPN, start: 7, stride: 3, n: (words - 7 + 2) / 3},
		runCase{name: "uncached", vpn: uncVPN, stride: 4, n: words / 4},
		runCase{name: "leaves-page", vpn: aliasVPN, start: 500, stride: 8, n: 4},
		runCase{name: "first-word-faults", vpn: 100, stride: 8, n: words / 8},
	)
	for _, dc := range dcacheVariants {
		for _, cpus := range []int{1, 2, 4} {
			if dc.name != "direct" && cpus == 2 {
				continue // the variants run on one CPU and on four
			}
			for _, withOracle := range []bool{false, true} {
				for _, acc := range []Access{AccessRead, AccessWrite, AccessExecute} {
					for _, rc := range cases {
						name := fmt.Sprintf("%dcpu/oracle=%t/%s/%s", cpus, withOracle, acc, rc.name)
						if dc.name != "direct" {
							name = dc.name + "/" + name
						}
						t.Run(name, func(t *testing.T) {
							tc := twinConfig{cpus: cpus, ways: dc.ways, policy: dc.policy, indexing: dc.indexing, oracle: withOracle}
							// Page 100 (color 36, frame 7) maps on first touch,
							// with a modify trap pending for writes.
							pending := spaceWalker{{1, 100}: {PFN: 7, Prot: arch.ProtReadWrite, NeedModTrap: true}}
							run := func(noFast bool) observation {
								m := buildTwin(t, tc, noFast, userTable(nil), pending, nil)
								primeRun(t, m)
								var seq uint64
								next := func() uint64 { seq++; return seq<<8 | 0x5a }
								va := wordVA(m, rc.vpn, rc.start)
								if noFast {
									for i := uint64(0); i < rc.n; i++ {
										if err := wordAccess(m, va+arch.VA(i*rc.stride*arch.WordSize), acc, next); err != nil {
											t.Fatal(err)
										}
									}
								} else if err := m.Strided(1, va, rc.stride, rc.n, acc, next); err != nil {
									t.Fatal(err)
								}
								return observe(m)
							}
							compareObservations(t, run(false), run(true))
						})
					}
				}
			}
		}
	}
}

// TestBulkCopyPageMatchesWordLoop pits BulkCopyPage against the word
// loop with the oracle off and on. With it on, the bulk tail observes
// every source word and records every destination word, so the twins
// must agree on the oracle's checks, violations and shadow too; the
// stale-alias cases dirty the source frame through an unaligned alias,
// so the violation lists compared are not empty.
func TestBulkCopyPageMatchesWordLoop(t *testing.T) {
	words := uint64(512)
	type copyCase struct {
		name     string
		cpus     int
		ways     int
		sspace   arch.SpaceID
		svpn     arch.VPN
		dvpn     arch.VPN
		extra    spaceWalker // entries overriding the default table
		pending  spaceWalker
		onFault  func(*Machine, Fault)
		wantBulk uint64 // words the bulk call must perform
		// srcAlias, when set, maps the source frame in space 1 at
		// another color, and CPU 0 dirties lines through it last: the
		// copy then reads words the oracle flags as stale.
		srcAlias arch.VPN
	}
	aliasSrc := spaceWalker{{1, srcVPN + 1}: {PFN: 20, Prot: arch.ProtReadWrite}}
	cases := []copyCase{
		{name: "cross-space", cpus: 1, ways: 1, sspace: 0, svpn: srcVPN, dvpn: dstVPN, wantBulk: words},
		{name: "same-space", cpus: 1, ways: 1, sspace: 1, svpn: srcVPN, dvpn: dstVPN,
			extra: spaceWalker{{1, srcVPN}: {PFN: 20, Prot: arch.ProtReadWrite}}, wantBulk: words},
		{name: "two-way", cpus: 1, ways: 2, sspace: 0, svpn: srcVPN, dvpn: dstVPN, wantBulk: words},
		{name: "peer-dirty", cpus: 2, ways: 1, sspace: 0, svpn: srcVPN, dvpn: dstVPN, wantBulk: words},
		{name: "peer-partial-4cpu", cpus: 4, ways: 1, sspace: 0, svpn: srcVPN, dvpn: dstVPN, wantBulk: words},
		{name: "dest-fault-shoots-source", cpus: 1, ways: 1, sspace: 0, svpn: srcVPN, dvpn: 17,
			pending:  spaceWalker{{1, 17}: {PFN: 33, Prot: arch.ProtReadWrite}},
			onFault:  func(m *Machine, f Fault) { m.InvalidateTLB(0, srcVPN) },
			wantBulk: 1},
		{name: "dest-fault-peer-dirty", cpus: 2, ways: 1, sspace: 0, svpn: srcVPN, dvpn: 17,
			pending:  spaceWalker{{1, 17}: {PFN: 33, Prot: arch.ProtReadWrite, NeedModTrap: true}},
			wantBulk: words},
		{name: "same-color", cpus: 1, ways: 1, sspace: 0, svpn: srcVPN, dvpn: sameColVPN, wantBulk: 1},
		{name: "same-frame", cpus: 1, ways: 1, sspace: 0, svpn: srcVPN, dvpn: dstVPN,
			extra: spaceWalker{{1, dstVPN}: {PFN: 20, Prot: arch.ProtReadWrite}}, wantBulk: 1},
		{name: "uncached-dest", cpus: 1, ways: 1, sspace: 0, svpn: srcVPN, dvpn: dstVPN,
			extra: spaceWalker{{1, dstVPN}: {PFN: 30, Prot: arch.ProtReadWrite, Uncached: true}}, wantBulk: 1},
		{name: "stale-alias-source", cpus: 1, ways: 1, sspace: 0, svpn: srcVPN, dvpn: dstVPN,
			extra: aliasSrc, srcAlias: srcVPN + 1, wantBulk: words},
		{name: "stale-alias-source-2cpu", cpus: 2, ways: 1, sspace: 0, svpn: srcVPN, dvpn: dstVPN,
			extra: aliasSrc, srcAlias: srcVPN + 1, wantBulk: words},
	}
	for _, cc := range cases {
		t.Run(cc.name, func(t *testing.T) {
			for _, withOracle := range []bool{false, true} {
				t.Run(fmt.Sprintf("oracle=%t", withOracle), func(t *testing.T) {
					tc := twinConfig{cpus: cc.cpus, ways: cc.ways, oracle: withOracle}
					run := func(noFast bool) observation {
						m := buildTwin(t, tc, noFast, userTable(cc.extra), cc.pending, cc.onFault)
						// Source data partly dirty in CPU 0's cache, partly in
						// the peer's; destination lines cached clean and dirty
						// in the peer; conflicting dirty lines in the
						// destination's sets.
						ops := linesOf(m, 0, cc.sspace, cc.svpn, 0)
						ops = append(ops, linesOf(m, 1, cc.sspace, cc.svpn, m.Geom.WordsPerLine())...)
						if cc.pending == nil {
							ops = append(ops, linesOf(m, 1, 1, cc.dvpn, 0)...)
						}
						ops = append(ops, linesOf(m, 0, 1, victimVPN, m.Geom.WordsPerLine())...)
						// On four CPUs: peer 2 holds nothing of either frame;
						// peer 3 holds a few clean destination lines and a few
						// dirty source lines.
						wpl := m.Geom.WordsPerLine()
						ops = append(ops, linesOf(m, 2, 1, nextVPN, 0)...)
						for l := uint64(3); l < 128; l += 16 {
							ops = append(ops, primeOp{3, 1, cc.dvpn, l * wpl, false}, primeOp{3, cc.sspace, cc.svpn, (l + 5) * wpl, true})
						}
						if cc.srcAlias != 0 {
							for l := uint64(2); l < 128; l += 7 {
								ops = append(ops, primeOp{0, 1, cc.srcAlias, l*wpl + 1, true})
							}
						}
						prime(t, m, ops)
						sbase, dbase := m.Geom.PageBase(cc.svpn), m.Geom.PageBase(cc.dvpn)
						start := uint64(0)
						if !noFast {
							n, err := m.BulkCopyPage(cc.sspace, sbase, 1, dbase)
							if err != nil {
								t.Fatal(err)
							}
							if n != cc.wantBulk {
								t.Errorf("BulkCopyPage performed %d words, want %d", n, cc.wantBulk)
							}
							start = n
						}
						for i := start; i < words; i++ {
							off := arch.VA(i * arch.WordSize)
							v, err := m.Read(cc.sspace, sbase+off)
							if err != nil {
								t.Fatal(err)
							}
							if err := m.Write(1, dbase+off, v); err != nil {
								t.Fatal(err)
							}
						}
						return observe(m)
					}
					fast, ref := run(false), run(true)
					compareObservations(t, fast, ref)
					if withOracle && cc.srcAlias != 0 && len(fast.Violations) == 0 {
						t.Error("the copy of a source with a dirty unaligned alias observed no stale word")
					}
				})
			}
		})
	}
}

// TestBulkZeroPageWithOracle: with the oracle on, BulkZeroPage performs
// the whole page and matches the word loop on every observable, the
// oracle's shadow included, on one CPU and with a peer holding dirty
// lines of the frame.
func TestBulkZeroPageWithOracle(t *testing.T) {
	for _, cpus := range []int{1, 2} {
		t.Run(fmt.Sprintf("%dcpu", cpus), func(t *testing.T) {
			tc := twinConfig{cpus: cpus, ways: 1, oracle: true}
			run := func(noFast bool) observation {
				m := buildTwin(t, tc, noFast, userTable(nil), nil, nil)
				primeRun(t, m)
				base := m.Geom.PageBase(runVPN)
				start := uint64(0)
				if !noFast {
					n, err := m.BulkZeroPage(1, base)
					if err != nil {
						t.Fatal(err)
					}
					if n != m.Geom.WordsPerPage() {
						t.Fatalf("BulkZeroPage performed %d of %d words with the oracle on", n, m.Geom.WordsPerPage())
					}
					start = n
				}
				for i := start; i < m.Geom.WordsPerPage(); i++ {
					if err := m.Write(1, base+arch.VA(i*arch.WordSize), 0); err != nil {
						t.Fatal(err)
					}
				}
				return observe(m)
			}
			compareObservations(t, run(false), run(true))
		})
	}
}

// TestDMAMatchesWordLoop: the DMA range moves record and observe through
// the oracle word for word. A device read of a frame whose dirty lines
// sit in a cache (CPU 0's unaligned alias, and on two CPUs the peer's
// aligned lines) gets stale memory, and the twins must agree on every
// violation; a device write spanning two frames must leave the same
// shadow and memory.
func TestDMAMatchesWordLoop(t *testing.T) {
	for _, cpus := range []int{1, 2} {
		for _, withOracle := range []bool{false, true} {
			t.Run(fmt.Sprintf("%dcpu/oracle=%t", cpus, withOracle), func(t *testing.T) {
				tc := twinConfig{cpus: cpus, ways: 1, oracle: withOracle}
				var reads [2][]uint64
				run := func(noFast bool) observation {
					m := buildTwin(t, tc, noFast, userTable(nil), nil, nil)
					primeRun(t, m)
					wpp := m.Geom.WordsPerPage()
					out := m.DMARead(m.Geom.FrameBase(7), int(wpp))
					if noFast {
						reads[1] = out
					} else {
						reads[0] = out
					}
					data := make([]uint64, wpp+88)
					for i := range data {
						data[i] = uint64(i)<<16 | 0xd
					}
					m.DMAWrite(m.Geom.FrameBase(30)+arch.PA(100*arch.WordSize), data)
					m.DMARead(m.Geom.FrameBase(31)+arch.PA(8*arch.WordSize), 64)
					return observe(m)
				}
				fast, ref := run(false), run(true)
				compareObservations(t, fast, ref)
				if !reflect.DeepEqual(reads[0], reads[1]) {
					t.Error("DMARead delivered different words on the fast path")
				}
				if withOracle && len(fast.Violations) == 0 {
					t.Error("the device read of a frame with dirty cached lines observed no stale word")
				}
			})
		}
	}
}
