// Package kernel assembles the whole simulated system — machine, pmap,
// VM, file system, Unix server — and exposes the process and syscall
// surface the benchmark workloads drive.
//
// The kernel is deliberately thin: its job is to generate the same
// *shapes* of memory-system activity the paper's benchmarks generated on
// Mach 3.0 — IPC page transfers, zero-fill and copy page preparation,
// buffer-cache file I/O with DMA, text faults with data-to-instruction
// copies, and Unix-server shared-page traffic.
package kernel

import (
	"fmt"

	"vcache/internal/arch"
	"vcache/internal/dma"
	"vcache/internal/fs"
	"vcache/internal/machine"
	"vcache/internal/mem"
	"vcache/internal/pmap"
	"vcache/internal/policy"
	"vcache/internal/sim"
	"vcache/internal/trace"
	"vcache/internal/unixserver"
	"vcache/internal/vm"
)

// Process layout constants (virtual page numbers).
const (
	textBaseVPN  arch.VPN = 0x04000
	heapBaseVPN  arch.VPN = 0x10000
	stackBaseVPN arch.VPN = 0x30000
	stackPages            = 4
)

// Process is one simulated Unix process.
type Process struct {
	ID    int
	Space *vm.Space
	Text  *vm.Region
	Heap  *vm.Region
	Stack *vm.Region
	// CPU is the processor the process is pinned to (pid-round-robin
	// on a multiprocessor; always 0 on the paper's uniprocessor).
	CPU int

	heapPages uint64
}

// HeapVA returns the virtual address of word `word` of heap page `page`.
func (p *Process) HeapVA(geom arch.Geometry, page, word uint64) arch.VA {
	return geom.PageBase(heapBaseVPN+arch.VPN(page)) + arch.VA(word*arch.WordSize)
}

// HeapVPN returns the virtual page number of heap page `page` — the
// fixed process layout every address space shares, which replay
// programs rely on when naming heap addresses directly (flushp/purgep
// of a page that was never rebound).
func HeapVPN(page uint64) arch.VPN { return heapBaseVPN + arch.VPN(page) }

// Config sizes the simulated system.
type Config struct {
	Machine machine.Config
	FS      fs.Config
	Policy  policy.Config
	// Sched enables deterministic preemption on a multiprocessor (see
	// sched.go). The zero value — and any uniprocessor — disables it.
	Sched SchedConfig
	// ReservedFrames are never allocated (kernel image).
	ReservedFrames int
}

// DefaultConfig returns the HP 720-shaped system used by the benchmarks.
// Physical memory is sized so that the benchmarks continually recycle
// frames through the free list, as a long-running system does — the
// source of the new-mapping consistency work Section 5.1 finds dominant.
func DefaultConfig(p policy.Config) Config {
	mc := machine.DefaultConfig()
	mc.Frames = 1024 // 4 MiB
	return Config{
		Machine:        mc,
		FS:             fs.DefaultConfig(),
		Policy:         p,
		ReservedFrames: 16,
	}
}

// Kernel is the assembled system.
type Kernel struct {
	Cfg    Config
	M      *machine.Machine
	PM     *pmap.Pmap
	VM     *vm.System
	FS     *fs.FileSystem
	Disk   *dma.Disk
	Swap   *dma.Disk
	Server *unixserver.Server

	procs   map[int]*Process
	nextPID int
	seq     uint64

	// sched, when non-nil, preempts processes at operation boundaries
	// (see sched.go). Created disarmed; the harness arms it at the
	// start of the measured phase via StartSched.
	sched *sched

	// interrupt, when installed, is polled at every syscall and
	// process-operation boundary; a non-nil return aborts the current
	// operation with that error. See SetInterrupt.
	interrupt func() error

	// oplog, when attached, receives one EvOp event per successful
	// top-level kernel operation (see oplog.go); opDepth guards against
	// recording nested operations, and objIDs names vm objects across
	// MapFile calls. All three are per-run state: Clone drops them, and
	// the harness attaches the log after any snapshot fork.
	oplog   *trace.Recorder
	opDepth int
	objIDs  map[*vm.Object]int
}

// New boots a system under the given configuration.
func New(cfg Config) (*Kernel, error) {
	m, err := machine.New(cfg.Machine)
	if err != nil {
		return nil, err
	}
	feat := cfg.Policy.Features
	allocPolicy := mem.SingleList
	if feat.ColoredFreeList {
		allocPolicy = mem.ColoredLists
	}
	alloc, err := mem.NewAllocator(cfg.Machine.Geometry, cfg.Machine.Frames, cfg.ReservedFrames, allocPolicy)
	if err != nil {
		return nil, err
	}
	pm := pmap.New(m, alloc, feat)
	sys := vm.New(pm, cfg.Machine.Geometry)
	m.SetFaultHandler(sys)
	disk := dma.NewDisk(m)
	filesys, err := fs.New(m, pm, disk, cfg.FS)
	if err != nil {
		return nil, err
	}
	// A dedicated swap device backs the default pager; file data and
	// paging traffic are accounted separately.
	swap := dma.NewDisk(m)
	sys.SetSwap(swap)
	k := &Kernel{
		Cfg:     cfg,
		M:       m,
		PM:      pm,
		VM:      sys,
		FS:      filesys,
		Disk:    disk,
		Swap:    swap,
		Server:  unixserver.New(sys, m, feat),
		procs:   make(map[int]*Process),
		nextPID: 1,
	}
	if cfg.Sched.Quantum > 0 && m.NumCPUs() > 1 {
		k.sched = &sched{quantum: cfg.Sched.Quantum, rng: *sim.NewRand(cfg.Sched.Seed)}
	}
	return k, nil
}

// Geometry returns the machine geometry.
func (k *Kernel) Geometry() arch.Geometry { return k.M.Geom }

// SetInterrupt installs a poll function consulted at every syscall and
// process-operation boundary. When poll returns a non-nil error the
// current operation aborts with it, which propagates out through the
// workload to the harness — the mechanism behind context cancellation
// of in-flight runs (harness.Exec installs ctx.Err here).
// A nil poll removes the hook.
func (k *Kernel) SetInterrupt(poll func() error) { k.interrupt = poll }

// interrupted polls the interrupt hook, if one is installed.
func (k *Kernel) interrupted() error {
	if k.interrupt == nil {
		return nil
	}
	return k.interrupt()
}

// Compute charges workload "think time" cycles.
func (k *Kernel) Compute(cycles uint64) {
	k.opEnter()
	defer k.opExit()
	k.M.Clock.Charge(sim.CatCompute, cycles)
	k.oplogf("compute cycles=%d", func() []any { return []any{cycles} })
}

// nextValue produces a distinct value for a store, so the oracle can
// detect any stale read.
func (k *Kernel) nextValue() uint64 {
	k.seq++
	return k.seq<<8 | 0x5a
}

// Spawn creates a process. textFile, when non-nil, provides the text
// image: a fresh text object backed by the file system pages it in on
// demand, each page-in performing the data-to-instruction-space copy.
func (k *Kernel) Spawn(textFile *fs.File, textPages, heapPages uint64) (*Process, error) {
	k.opEnter()
	defer k.opExit()
	if err := k.interrupted(); err != nil {
		return nil, err
	}
	p := &Process{ID: k.nextPID, Space: k.VM.CreateSpace(), heapPages: heapPages}
	p.CPU = p.ID % k.M.NumCPUs()
	k.nextPID++
	k.M.SetCurrentCPU(p.CPU)
	var err error
	if textFile != nil {
		if textPages == 0 || textPages > textFile.Pages() {
			textPages = textFile.Pages()
		}
		obj := k.VM.NewTextObject(&textPager{k: k, file: textFile})
		p.Text, err = k.VM.MapObject(p.Space, obj, 0, textPages, textBaseVPN, arch.NoCachePage, arch.ProtRead, false, vm.KindText)
		if err != nil {
			return nil, fmt.Errorf("kernel: map text: %w", err)
		}
	}
	heap := k.VM.NewObject()
	p.Heap, err = k.VM.MapObject(p.Space, heap, 0, heapPages, heapBaseVPN, arch.NoCachePage, arch.ProtReadWrite, false, vm.KindAnon)
	if err != nil {
		return nil, fmt.Errorf("kernel: map heap: %w", err)
	}
	stack := k.VM.NewObject()
	p.Stack, err = k.VM.MapObject(p.Space, stack, 0, stackPages, stackBaseVPN, arch.NoCachePage, arch.ProtReadWrite, false, vm.KindAnon)
	if err != nil {
		return nil, fmt.Errorf("kernel: map stack: %w", err)
	}
	if err := k.Server.Attach(p.Space, p.CPU); err != nil {
		return nil, err
	}
	k.procs[p.ID] = p
	img := "-"
	if textFile != nil {
		img = textFile.Name
	}
	k.oplogf("spawn pid=%d img=%s text=%d heap=%d", func() []any { return []any{p.ID, img, textPages, heapPages} })
	return p, nil
}

// Fork clones a process: the heap is shared copy-on-write, the stack is
// copied eagerly (it is small), and the text object is shared.
//
// Simplification vs. Mach: repeated forks share the original heap
// object rather than chaining shadow objects, so a grandchild sees the
// pre-fork heap, not its parent's private copies. Cache-consistency
// behavior — the subject of this simulation — is unaffected (the oracle
// checks every transfer); only the Unix-visible inheritance of
// COW-modified pages across second-generation forks is simplified.
func (k *Kernel) Fork(parent *Process) (*Process, error) {
	k.preempt(parent)
	k.opEnter()
	defer k.opExit()
	if err := k.interrupted(); err != nil {
		return nil, err
	}
	child := &Process{ID: k.nextPID, Space: k.VM.CreateSpace(), heapPages: parent.heapPages}
	child.CPU = child.ID % k.M.NumCPUs()
	k.nextPID++
	k.M.SetCurrentCPU(child.CPU)
	var err error
	if parent.Text != nil {
		child.Text, err = k.VM.MapObject(child.Space, parent.Text.Obj, parent.Text.ObjOff, parent.Text.Pages, textBaseVPN, arch.NoCachePage, arch.ProtRead, false, vm.KindText)
		if err != nil {
			return nil, err
		}
	}
	child.Heap, err = k.VM.MapObject(child.Space, parent.Heap.Obj, parent.Heap.ObjOff, parent.Heap.Pages, heapBaseVPN, arch.NoCachePage, arch.ProtReadWrite, true, vm.KindAnon)
	if err != nil {
		return nil, err
	}
	// Both sides of a fork are copy-on-write: the parent's future
	// writes must be private too.
	k.VM.MakeCOW(parent.Space, parent.Heap)
	stack := k.VM.NewObject()
	child.Stack, err = k.VM.MapObject(child.Space, stack, 0, stackPages, stackBaseVPN, arch.NoCachePage, arch.ProtReadWrite, false, vm.KindAnon)
	if err != nil {
		return nil, err
	}
	if err := k.Server.Attach(child.Space, child.CPU); err != nil {
		return nil, err
	}
	k.procs[child.ID] = child
	k.oplogf("fork pid=%d parent=%d", func() []any { return []any{child.ID, parent.ID} })
	return child, nil
}

// Exit tears a process down, returning its pages (lazily or eagerly per
// policy) to the free list.
func (k *Kernel) Exit(p *Process) {
	k.preempt(p)
	k.opEnter()
	defer k.opExit()
	k.M.SetCurrentCPU(p.CPU)
	k.Server.Detach(p.Space)
	k.VM.DestroySpace(p.Space)
	delete(k.procs, p.ID)
	k.oplogf("exit pid=%d", func() []any { return []any{p.ID} })
}

// textPager pages text in from the file system's buffer cache.
type textPager struct {
	k    *Kernel
	file *fs.File
}

func (tp *textPager) PageIn(idx uint64) (arch.PFN, error) {
	b, err := tp.k.FS.GetBuffer(tp.file, idx, false)
	if err != nil {
		return 0, err
	}
	return tp.k.FS.Frame(b), nil
}

// HasText reports whether the process has a text image mapped.
func (p *Process) HasText() bool { return p.Text != nil }
