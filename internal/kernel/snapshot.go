package kernel

import (
	"vcache/internal/vm"
)

// Clone returns an independent copy of the whole simulated system:
// machine (memory forks copy-on-write), pmap, VM, file system, disks,
// Unix server and process table. The clone shares no mutable state with
// the original; running one cannot perturb the other. The interrupt
// hook and any attached tracers are NOT carried over — both are bound to
// a specific run, and the harness installs fresh ones per fork.
//
// Wiring order mirrors New: machine first, then pmap (registers itself
// as the walker), disks, file system, VM (fault handler), swap, server.
func (k *Kernel) Clone() *Kernel {
	m2 := k.M.Clone()
	pm2 := k.PM.Clone(m2)
	disk2 := k.Disk.Clone(m2)
	swap2 := k.Swap.Clone(m2)
	fs2, fileMap := k.FS.Clone(m2, pm2, disk2)
	k2 := &Kernel{
		Cfg:     k.Cfg,
		M:       m2,
		PM:      pm2,
		FS:      fs2,
		Disk:    disk2,
		Swap:    swap2,
		nextPID: k.nextPID,
		seq:     k.seq,
	}
	if k.sched != nil {
		s2 := *k.sched
		k2.sched = &s2
	}
	// Text pagers hold the kernel and a file; rebind them to the clone's.
	// Anything else (test fakes) is assumed stateless and shared.
	rebind := func(p vm.Pager) vm.Pager {
		if tp, ok := p.(*textPager); ok {
			return &textPager{k: k2, file: fileMap[tp.file]}
		}
		return p
	}
	sys2, maps := k.VM.Clone(pm2, rebind)
	m2.SetFaultHandler(sys2)
	sys2.SetSwap(swap2)
	k2.VM = sys2
	k2.Server = k.Server.Clone(sys2, m2, maps)
	k2.procs = make(map[int]*Process, len(k.procs))
	for id, p := range k.procs {
		p2 := *p
		p2.Space = maps.Spaces[p.Space]
		p2.Text = maps.Regions[p.Text]
		p2.Heap = maps.Regions[p.Heap]
		p2.Stack = maps.Regions[p.Stack]
		k2.procs[id] = &p2
	}
	return k2
}

// Snapshot freezes the kernel into an immutable, forkable image. The
// original kernel must not run afterwards — its memory becomes the
// shared backing store of every fork (mem.Freeze), which is also what
// makes Fork safe to call from multiple goroutines at once.
type Snapshot struct {
	k *Kernel
}

// Snapshot captures the kernel as a reusable boot image.
func (k *Kernel) Snapshot() *Snapshot {
	k.M.Freeze()
	return &Snapshot{k: k}
}

// Fork instantiates a fresh, independently runnable kernel from the
// image. Cost is O(dirtied pages): memory pages are shared
// copy-on-write with the image until the fork writes them.
func (s *Snapshot) Fork() *Kernel { return s.k.Clone() }

// Bytes estimates the resident size of the image, for pool accounting:
// the physical memory (plus the oracle's shadow of it) dominates, with
// the caches' line data second.
func (s *Snapshot) Bytes() int64 {
	cfg := s.k.Cfg.Machine
	memBytes := s.k.M.Mem.Bytes()
	total := memBytes
	if s.k.M.Oracle != nil {
		total += memBytes
	}
	cpus := cfg.CPUs
	if cpus <= 0 {
		cpus = 1
	}
	total += int64(cpus) * int64(cfg.Geometry.DCacheSize+cfg.Geometry.ICacheSize)
	return total
}
