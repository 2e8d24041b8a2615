// Package vcache is the public API of the reproduction of Wheeler &
// Bershad, "Consistency Management for Virtually Indexed Caches"
// (ASPLOS 1992).
//
// The package boots a complete simulated system — an HP 9000/720-shaped
// machine (virtually indexed, physically tagged, write-back data cache;
// split I/D caches; TLB; non-snooping DMA) under a Mach-style kernel
// whose machine-dependent layer runs the paper's CacheControl
// consistency algorithm — and exposes the paper's policies, benchmarks,
// and tables:
//
//	sys, _ := vcache.NewSystem(vcache.PolicyNew())
//	p, _ := sys.Kernel().Spawn(nil, 0, 16)
//	...
//	r, _ := vcache.RunBenchmark("kernel-build", vcache.PolicyNew(), 1.0)
//	fmt.Println(r.Seconds, r.PM.DPurgePages)
//
// Every system boots with the staleness oracle attached: all values
// delivered to the CPU, the instruction stream, or a DMA device are
// checked against shadow memory, so any consistency bug in a policy or
// an experiment surfaces as a reported violation rather than silent
// corruption.
//
// The exported identifiers are aliases into the implementation packages;
// see internal/core for the consistency model itself and DESIGN.md for
// the system inventory.
package vcache

import (
	"vcache/internal/cache"
	"vcache/internal/kernel"
	"vcache/internal/policy"
	"vcache/internal/report"
	"vcache/internal/sim"
	"vcache/internal/workload"
)

// Policy is one consistency-management configuration: the paper's
// cumulative kernels A–F or a Table 5 system (Utah, Tut, Apollo, Sun).
type Policy = policy.Config

// PolicyOld returns the original system (configuration A).
func PolicyOld() Policy { return policy.Old() }

// PolicyNew returns the paper's full system (configuration F).
func PolicyNew() Policy { return policy.New() }

// Policies returns the six lettered configurations A–F in order.
func Policies() []Policy { return policy.Configs() }

// Table5Policies returns the five systems of the paper's Table 5.
func Table5Policies() []Policy { return policy.Table5Systems() }

// PolicyByLabel resolves any label vcachesim and the service accept:
// "A".."F", the Table 5 systems and the peer backend "RLT".
func PolicyByLabel(label string) (Policy, error) { return policy.ByLabel(label) }

// Kernel is the simulated operating system (see internal/kernel).
type Kernel = kernel.Kernel

// Process is one simulated Unix process.
type Process = kernel.Process

// Result carries the measurements of one benchmark run.
type Result = workload.Result

// AliasMicroResult carries the Section 2.5 microbenchmark measurements.
type AliasMicroResult = workload.AliasMicroResult

// Option adjusts the simulated system.
type Option func(*kernel.Config)

// WithFrames sets physical memory size in 4 KiB frames (default 1024).
func WithFrames(n int) Option {
	return func(c *kernel.Config) { c.Machine.Frames = n }
}

// WithFastPurge applies the single-cycle page purge timing profile of
// the Section 5.1 what-if instead of the HP 720 profile.
func WithFastPurge() Option {
	return func(c *kernel.Config) { c.Machine.Timing = sim.FastPurgeTiming() }
}

// WithWriteThroughDCache replaces the write-back data cache with a
// write-through one (Section 3.3 variant).
func WithWriteThroughDCache() Option {
	return func(c *kernel.Config) { c.Machine.DCachePolicy = cache.WriteThrough }
}

// WithPhysicallyIndexedDCache replaces the virtually indexed data cache
// with a physically indexed one (Section 3.3 variant).
func WithPhysicallyIndexedDCache() Option {
	return func(c *kernel.Config) { c.Machine.DCacheIndexing = cache.PhysicalIndex }
}

// WithDCacheWays sets the data cache associativity (default 1, direct
// mapped as on the 720).
func WithDCacheWays(ways int) Option {
	return func(c *kernel.Config) { c.Machine.DCacheWays = ways }
}

// WithCPUs builds a cache-coherent multiprocessor (Section 3.3): each
// CPU gets private caches and a TLB; hardware keeps aligned copies
// consistent, the software model handles the rest unchanged.
func WithCPUs(n int) Option {
	return func(c *kernel.Config) { c.Machine.CPUs = n }
}

// System is a booted simulated machine plus kernel.
type System struct {
	k *kernel.Kernel
}

// NewSystem boots a system under the given policy.
func NewSystem(p Policy, opts ...Option) (*System, error) {
	cfg := kernel.DefaultConfig(p)
	for _, o := range opts {
		o(&cfg)
	}
	k, err := kernel.New(cfg)
	if err != nil {
		return nil, err
	}
	return &System{k: k}, nil
}

// Kernel returns the operating system interface: Spawn, Fork, Exit,
// file syscalls, IPC page transfer, and the underlying machine (M),
// pmap (PM), VM, file system (FS), and devices.
func (s *System) Kernel() *Kernel { return s.k }

// Violations reports how many stale transfers the oracle observed (zero
// for any correct policy).
func (s *System) Violations() int { return len(s.k.M.Oracle.Violations()) }

// Seconds returns the simulated elapsed time.
func (s *System) Seconds() float64 { return s.k.M.Clock.Seconds() }

// Collect snapshots every counter of the system into a Result.
func (s *System) Collect(label string) Result {
	return workload.Collect(label, s.k.Cfg.Policy, s.k)
}

// BenchmarkNames lists the paper's three benchmarks.
func BenchmarkNames() []string {
	var out []string
	for _, w := range workload.Benchmarks() {
		out = append(out, w.Name)
	}
	return out
}

// RunBenchmark runs one of the paper's benchmarks ("afs-bench",
// "latex-paper", "kernel-build") under a policy at the given scale
// factor (1.0 = the scale the tables are generated at).
func RunBenchmark(name string, p Policy, scale float64, opts ...Option) (Result, error) {
	w, err := workload.ByName(name)
	if err != nil {
		return Result{}, err
	}
	cfg := kernel.DefaultConfig(p)
	for _, o := range opts {
		o(&cfg)
	}
	return workload.Run(w, p, workload.Scale{Name: "api", Factor: scale}, cfg)
}

// RunStress runs the randomized torture workload (seeded, fully
// deterministic) under a policy.
func RunStress(seed uint64, steps int, p Policy, opts ...Option) (Result, error) {
	cfg := kernel.DefaultConfig(p)
	for _, o := range opts {
		o(&cfg)
	}
	return workload.Run(workload.Stress(seed, steps), p, workload.Full(), cfg)
}

// RunAliasMicro runs the Section 2.5 contrived benchmark: `writes`
// stores alternating between two mappings (aligned or not) of one
// physical page.
func RunAliasMicro(p Policy, writes int, aligned bool) (AliasMicroResult, error) {
	return workload.RunAliasMicro(p, writes, aligned)
}

// Table2 renders the paper's Table 2 (cache line state transitions)
// from the executable model.
func Table2() string { return report.Table2() }

// Table3 renders the paper's Table 3 (state vs. data-structure
// encoding).
func Table3() string { return report.Table3() }
