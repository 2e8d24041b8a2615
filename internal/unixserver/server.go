// Package unixserver emulates Mach 3.0's user-level Unix server as far
// as cache consistency is concerned.
//
// The server shares a page of memory with each Unix process as a
// high-bandwidth, low-latency channel for passing syscall information.
// In the original system the server requested those pages at specific
// virtual addresses in its own and each process' address space; the
// addresses did not align, so every request/response exchange bounced the
// page between two cache pages and caused consistency faults, flushes
// and purges. The paper's fix lets the virtual memory system choose the
// addresses, which aligns them (the "+align pages" configuration).
package unixserver

import (
	"fmt"

	"vcache/internal/arch"
	"vcache/internal/machine"
	"vcache/internal/policy"
	"vcache/internal/vm"
)

// Channel geometry: one shared page per process, requests in the first
// half, responses in the second.
const channelPages = 1

// serverFixedBase is the fixed server-side VPN the old server demanded
// (one per process, consecutive — colors vary with process index).
const serverFixedBase arch.VPN = 0x0400

// procFixedVPN is the fixed process-side VPN the old server demanded in
// every process (a constant, so its cache color is constant — and with
// the server side's color walking the colors per process, the two align
// for only one process in DCachePages).
const procFixedVPN arch.VPN = 0x0223

// serverCPU is the processor the server's side of every transaction
// runs on (CPU 0); processes run on their own CPUs, so on a
// multiprocessor each transaction bounces the shared page between two
// caches — kept coherent by hardware when the addresses align, by the
// consistency algorithm when they do not.
const serverCPU = 0

// Channel is one process' shared communication page.
type Channel struct {
	serverRegion *vm.Region
	procRegion   *vm.Region
	proc         *vm.Space
	cpu          int // the process' CPU
	aligned      bool
}

// Stats counts server activity.
type Stats struct {
	Attaches        uint64
	Transactions    uint64
	AlignedChannels uint64
}

// Server is the user-level operating system server.
type Server struct {
	sys    *vm.System
	m      *machine.Machine
	geom   arch.Geometry
	feat   policy.Features
	space  *vm.Space
	chans  map[arch.SpaceID]*Channel
	nProcs uint64
	seq    uint64
	stats  Stats
}

// New creates the server in its own address space.
func New(sys *vm.System, m *machine.Machine, feat policy.Features) *Server {
	return &Server{
		sys:   sys,
		m:     m,
		geom:  m.Geom,
		feat:  feat,
		space: sys.CreateSpace(),
		chans: make(map[arch.SpaceID]*Channel),
	}
}

// Clone returns an independent copy of the server bound to forked VM
// system sys2 and machine m2 (snapshot/fork support). maps is the
// pointer correspondence produced by the VM clone; the server's space
// and every channel's regions and process space are remapped through it.
func (s *Server) Clone(sys2 *vm.System, m2 *machine.Machine, maps *vm.CloneMaps) *Server {
	s2 := &Server{
		sys:    sys2,
		m:      m2,
		geom:   s.geom,
		feat:   s.feat,
		space:  maps.Spaces[s.space],
		chans:  make(map[arch.SpaceID]*Channel, len(s.chans)),
		nProcs: s.nProcs,
		seq:    s.seq,
		stats:  s.stats,
	}
	for id, ch := range s.chans {
		ch2 := *ch
		ch2.serverRegion = maps.Regions[ch.serverRegion]
		ch2.procRegion = maps.Regions[ch.procRegion]
		ch2.proc = maps.Spaces[ch.proc]
		s2.chans[id] = &ch2
	}
	return s2
}

// Stats returns a snapshot of the counters.
func (s *Server) Stats() Stats { return s.stats }

// Attach establishes the shared channel page with a process. Address
// placement follows the active policy: the old behavior fixes both
// addresses (rarely aligning); the new behavior lets the VM system pick
// aligning ones.
func (s *Server) Attach(proc *vm.Space, cpu int) error {
	if _, dup := s.chans[proc.ID]; dup {
		return fmt.Errorf("unixserver: space %d already attached", proc.ID)
	}
	fixedServer, fixedProc := vm.NoVPN, vm.NoVPN
	if !s.feat.AlignPages {
		fixedServer = serverFixedBase + arch.VPN(s.nProcs*channelPages)
		fixedProc = procFixedVPN
	}
	s.nProcs++
	ra, rb, err := s.sys.MapSharedPair(s.space, proc, channelPages, fixedServer, fixedProc)
	if err != nil {
		return fmt.Errorf("unixserver: attach space %d: %w", proc.ID, err)
	}
	ch := &Channel{serverRegion: ra, procRegion: rb, proc: proc, cpu: cpu}
	ch.aligned = s.geom.DColorOfVPN(ra.Start) == s.geom.DColorOfVPN(rb.Start)
	if ch.aligned {
		s.stats.AlignedChannels++
	}
	s.chans[proc.ID] = ch
	s.stats.Attaches++
	return nil
}

// SetCPU rebinds a process' channel to the CPU it now runs on. The
// kernel calls this on migration: Transaction runs the process' side of
// the exchange on ch.cpu, so a stale binding would keep charging the
// process' channel traffic to a CPU it left — exactly the
// misattribution bug the scheduler made observable.
func (s *Server) SetCPU(proc *vm.Space, cpu int) {
	if ch, ok := s.chans[proc.ID]; ok {
		ch.cpu = cpu
	}
}

// Detach tears down a process' channel.
func (s *Server) Detach(proc *vm.Space) {
	ch, ok := s.chans[proc.ID]
	if !ok {
		return
	}
	s.sys.Unmap(proc, ch.procRegion)
	s.sys.Unmap(s.space, ch.serverRegion)
	delete(s.chans, proc.ID)
}

// Transaction performs one syscall exchange over the shared page: the
// process writes a request, the server reads it and writes a response,
// and the process reads the response. With unaligned channel addresses
// every step crosses cache pages and pays consistency management.
func (s *Server) Transaction(proc *vm.Space, reqWords, respWords int) error {
	ch, ok := s.chans[proc.ID]
	if !ok {
		return fmt.Errorf("unixserver: space %d not attached", proc.ID)
	}
	half := int(s.geom.WordsPerPage() / 2)
	if reqWords < 0 || respWords < 0 || reqWords > half || respWords > half {
		return fmt.Errorf("unixserver: message size out of range (%d/%d words, max %d)", reqWords, respWords, half)
	}
	procBase := s.geom.PageBase(ch.procRegion.Start)
	servBase := s.geom.PageBase(ch.serverRegion.Start)
	respOff := arch.VA(uint64(half) * arch.WordSize)
	next := func() uint64 { s.seq++; return s.seq }
	req, resp := uint64(reqWords), uint64(respWords)

	// Process writes the request.
	s.m.SetCurrentCPU(ch.cpu)
	if err := s.m.Strided(proc.ID, procBase, 1, req, machine.AccessWrite, next); err != nil {
		return err
	}
	// Server reads the request and writes the response.
	s.m.SetCurrentCPU(serverCPU)
	if err := s.m.Strided(s.space.ID, servBase, 1, req, machine.AccessRead, next); err != nil {
		return err
	}
	if err := s.m.Strided(s.space.ID, servBase+respOff, 1, resp, machine.AccessWrite, next); err != nil {
		return err
	}
	// Process reads the response.
	s.m.SetCurrentCPU(ch.cpu)
	if err := s.m.Strided(proc.ID, procBase+respOff, 1, resp, machine.AccessRead, next); err != nil {
		return err
	}
	s.stats.Transactions++
	return nil
}

// ResetStats zeroes the server counters (channel alignment counts are
// preserved implicitly by re-counting attaches only after the reset).
func (s *Server) ResetStats() { s.stats = Stats{} }
