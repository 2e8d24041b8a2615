// Package harness is the experiment-execution layer: it turns a
// declarative description of one simulation run (a Spec) or a whole
// experiment matrix (a Plan) into measured Results.
//
// Every measured artifact of the paper — Table 1, Table 4, Table 5, the
// §5.1 analysis, the parameter sweeps — is a set of fully independent,
// deterministic simulations. The harness exploits that: a Plan is
// executed across a worker pool (see Runner), results come back in plan
// order regardless of completion order, and a panicking or failing run
// surfaces as a structured RunError instead of killing its siblings.
// Because each Spec boots its own kernel.Kernel and the simulator has no
// mutable package-level state, parallel execution is byte-identical to
// serial execution.
//
// Exec is the one way to perform a single run; Runner.Run is the one way
// to perform a Plan, and it is what cmd/tables, the sweep drivers, the
// service and the test matrices submit to.
package harness

import (
	"context"
	"fmt"
	"math"
	"time"

	"vcache/internal/core"
	"vcache/internal/dma"
	"vcache/internal/fs"
	"vcache/internal/kernel"
	"vcache/internal/machine"
	"vcache/internal/pmap"
	"vcache/internal/policy"
	"vcache/internal/sim"
	"vcache/internal/trace"
	"vcache/internal/unixserver"
	"vcache/internal/vm"
)

// Scale sizes a workload. Tests use small factors for speed; the tables
// are generated at factor 1.0.
type Scale struct {
	Name string
	// Factor multiplies the workload's intrinsic sizes (file counts,
	// compile counts, loop iterations). 1.0 is full scale.
	Factor float64
}

// maxFactor bounds Scale.Factor so that N cannot overflow: any base up
// to math.MaxInt32 times 2^31 stays below 2^62.
const maxFactor = 1 << 31

// Validate reports an error unless Factor is finite, positive, and small
// enough that N cannot overflow. Every surface that accepts a scale from
// outside (CLI flags, service requests) checks it before running.
func (s Scale) Validate() error {
	if math.IsNaN(s.Factor) || s.Factor <= 0 || s.Factor > maxFactor {
		return fmt.Errorf("scale must be a finite number in (0, %d], got %g", maxFactor, s.Factor)
	}
	return nil
}

// N scales an intrinsic workload size, never below 1.
func (s Scale) N(base int) int {
	n := int(float64(base) * s.Factor)
	if n < 1 {
		n = 1
	}
	return n
}

// Workload is a runnable benchmark.
type Workload struct {
	Name string
	// Setup builds input state (source trees, images); it is excluded
	// from measurement.
	Setup func(k *kernel.Kernel, s Scale) error
	// Run is the timed phase.
	Run func(k *kernel.Kernel, s Scale) error
}

// Result carries everything the experiment tables report for one run.
type Result struct {
	Workload string
	Config   policy.Config
	Seconds  float64
	Cycles   uint64
	CyclesBy map[sim.Category]uint64
	PM       pmap.Stats
	Ctl      core.Stats
	VM       vm.Stats
	FS       fs.Stats
	Disk     dma.Stats
	Machine  machine.Stats
	Server   unixserver.Stats
	// Paging activity (the default pager).
	PageOuts  uint64
	SwapIns   uint64
	TextDrops uint64
	// OracleViolations must be zero for any correct configuration.
	OracleViolations int
	OracleChecks     uint64
}

// CheckClean returns an error if the oracle observed any stale transfer
// during the run — a consistency bug in the configuration under test.
func (r Result) CheckClean() error {
	if r.OracleViolations != 0 {
		return fmt.Errorf("%s under %s: %d stale transfers observed — consistency bug",
			r.Workload, r.Config.Label, r.OracleViolations)
	}
	return nil
}

// Spec declares one simulation run: which benchmark, under which
// consistency configuration, at what scale, on what machine.
type Spec struct {
	// Name labels the run in errors and progress hooks; empty means
	// "<workload>/<config>".
	Name     string
	Workload Workload
	Config   policy.Config
	Scale    Scale
	// Kernel optionally overrides the system configuration; nil means
	// kernel.DefaultConfig(Config). The harness copies it before
	// applying Config, so one kernel.Config value may be shared by many
	// Specs.
	Kernel *kernel.Config
	// TraceN, when positive, attaches a ring-buffer recorder keeping
	// the last TraceN consistency events of the timed phase.
	TraceN int
	// RecordOps additionally routes the kernel op log into the trace
	// recorder (requires TraceN > 0), interleaving one "op" event per
	// top-level kernel operation with the consistency events. The
	// resulting export is replayable (see internal/replay); its Origin
	// block is this spec's Origin, so a replay can rebuild the same
	// system.
	RecordOps bool
	// Coverage, when non-nil, accumulates the Table 2 state×transition
	// cells the run exercises (see core.Coverage). Attached per run,
	// after any snapshot fork, like the trace recorder.
	Coverage *core.Coverage
	// DisableSnapshots forces a cold boot even when the executor has a
	// snapshot pool — the reference path the warm-boot identity tests
	// compare against.
	DisableSnapshots bool
}

// Label returns the run's display name.
func (s Spec) Label() string {
	if s.Name != "" {
		return s.Name
	}
	return s.Workload.Name + "/" + s.Config.Label
}

// kernelConfig resolves the effective system configuration.
func (s Spec) kernelConfig() kernel.Config {
	var kc kernel.Config
	if s.Kernel != nil {
		kc = *s.Kernel
	} else {
		kc = kernel.DefaultConfig(s.Config)
	}
	kc.Policy = s.Config
	return kc
}

// Resolve builds the spec a run description denotes; service requests,
// vcachesim runs and replays all come through here. It checks the
// configuration label, the scale (when w has a Setup to size) and the
// machine size, then builds the default kernel configuration with the
// origin's CPUs, frames and timing. The scheduler stays off: a recorded
// run's migrations are in its op log.
func Resolve(o trace.Origin, w Workload) (Spec, error) {
	cfg, err := policy.ByLabel(o.Config)
	if err != nil {
		return Spec{}, err
	}
	scale := Scale{Name: o.Scale, Factor: o.Factor}
	if w.Setup != nil {
		if err := scale.Validate(); err != nil {
			return Spec{}, err
		}
	}
	if err := machine.CheckSize(o.CPUs, o.Frames); err != nil {
		return Spec{}, err
	}
	kc := kernel.DefaultConfig(cfg)
	if o.CPUs > 0 {
		kc.Machine.CPUs = o.CPUs
	}
	if o.Frames > 0 {
		kc.Machine.Frames = o.Frames
	}
	kc.Machine.Timing = o.Timing.Apply(kc.Machine.Timing)
	return Spec{Workload: w, Config: cfg, Scale: scale, Kernel: &kc}, nil
}

// Origin describes the spec's run for a recording; Resolve is its
// inverse. Timing is nil under the default profile, so a default run's
// export keeps its bytes.
func (s Spec) Origin() trace.Origin {
	kc := s.kernelConfig()
	return trace.Origin{
		Workload: s.Workload.Name,
		Config:   s.Config.Label,
		Scale:    s.Scale.Name,
		Factor:   s.Scale.Factor,
		CPUs:     kc.Machine.CPUs,
		Frames:   kc.Machine.Frames,
		Timing:   sim.OverrideOf(machine.DefaultConfig().Timing, kc.Machine.Timing),
	}
}

// Phases is the wall-clock breakdown of one Exec: where the run's real
// (host) time went, as opposed to the simulated time the Result
// reports. Boot covers kernel construction, Setup the workload's input
// building plus the counter reset, Restore the fork from a pooled
// snapshot (zero on a cold boot; on a warm hit Boot and Setup are zero
// instead), Run the timed phase, and Collect the final counter snapshot.
//
// Spans are host time and therefore nondeterministic; they are carried
// next to the Result (in Outcome.Phases and Exec's return), never
// inside it, so Result keeps its byte-identical determinism guarantee
// under DeepEqual and JSON comparison.
type Phases struct {
	Boot    time.Duration `json:"boot"`
	Setup   time.Duration `json:"setup"`
	Restore time.Duration `json:"restore"`
	Run     time.Duration `json:"run"`
	Collect time.Duration `json:"collect"`
}

// Total is the whole-run wall clock.
func (p Phases) Total() time.Duration {
	return p.Boot + p.Setup + p.Restore + p.Run + p.Collect
}

func (p Phases) String() string {
	return fmt.Sprintf("boot=%v setup=%v restore=%v run=%v collect=%v", p.Boot, p.Setup, p.Restore, p.Run, p.Collect)
}

// boot builds the system and runs the workload's setup phase, leaving
// every counter reset — the state both the cold path measures from and
// the warm path snapshots. Boot and Setup spans are recorded into ph.
func boot(ctx context.Context, s Spec, ph *Phases) (*kernel.Kernel, error) {
	start := time.Now()
	k, err := kernel.New(s.kernelConfig())
	ph.Boot = time.Since(start)
	if err != nil {
		return nil, err
	}
	k.SetInterrupt(ctx.Err)
	start = time.Now()
	if s.Workload.Setup != nil {
		if err := s.Workload.Setup(k, s.Scale); err != nil {
			ph.Setup = time.Since(start)
			return nil, fmt.Errorf("%s/%s setup: %w", s.Workload.Name, s.Config.Label, err)
		}
	}
	resetAll(k)
	ph.Setup = time.Since(start)
	return k, nil
}

// measure runs the timed phase on a booted (or forked) system and
// collects the result. The trace recorder, when requested, is attached
// here — per run, after any fork — so captured events can never leak
// into a shared snapshot or a sibling fork.
func measure(s Spec, k *kernel.Kernel, ph *Phases) (Result, *trace.Recorder, error) {
	var rec *trace.Recorder
	if s.TraceN > 0 {
		rec = trace.NewRecorder(s.TraceN)
		k.PM.SetTracer(rec)
		k.M.SetTracer(rec)
		if s.RecordOps {
			k.SetOpLog(rec)
			o := s.Origin()
			rec.SetOrigin(&o)
		}
	}
	k.PM.SetCoverage(s.Coverage)
	start := time.Now()
	if s.Workload.Run != nil {
		if err := s.Workload.Run(k, s.Scale); err != nil {
			ph.Run = time.Since(start)
			return Result{}, nil, fmt.Errorf("%s/%s: %w", s.Workload.Name, s.Config.Label, err)
		}
	}
	ph.Run = time.Since(start)
	start = time.Now()
	res := Collect(s.Workload.Name, s.Config, k)
	ph.Collect = time.Since(start)
	return res, rec, nil
}

// resetAll zeroes every counter in the system so the measured phase
// starts clean: the clock, the machine, the pmap/CacheControl layer, the
// VM system (including paging activity), the file system, the disk, and
// the Unix server.
func resetAll(k *kernel.Kernel) {
	k.M.Clock.Reset()
	k.M.ResetStats()
	k.PM.ResetStats()
	k.VM.ResetStats()
	k.FS.ResetStats()
	k.Disk.ResetStats()
	k.Server.ResetStats()
	// Preemption stays off through Setup (its migrations would precede
	// the op log and desynchronize replays); arm it — against the freshly
	// reset clock — as the measured phase begins.
	k.StartSched()
}

// Collect snapshots every counter into a Result.
func Collect(name string, cfg policy.Config, k *kernel.Kernel) Result {
	by := make(map[sim.Category]uint64)
	for _, cat := range []sim.Category{sim.CatAccess, sim.CatFlush, sim.CatPurge, sim.CatFault, sim.CatDMA, sim.CatCompute, sim.CatRLT, sim.CatRLTEvict} {
		by[cat] = k.M.Clock.CyclesIn(cat)
	}
	pageOuts, swapIns, textDrops := k.VM.SwapStats()
	return Result{
		Workload:         name,
		Config:           cfg,
		PageOuts:         pageOuts,
		SwapIns:          swapIns,
		TextDrops:        textDrops,
		Seconds:          k.M.Clock.Seconds(),
		Cycles:           k.M.Clock.Cycles(),
		CyclesBy:         by,
		PM:               k.PM.Stats(),
		Ctl:              k.PM.ControllerStats(),
		VM:               k.VM.Stats(),
		FS:               k.FS.Stats(),
		Disk:             k.Disk.Stats(),
		Machine:          k.M.Stats(),
		Server:           k.Server.Stats(),
		OracleViolations: len(k.M.Oracle.Violations()),
		OracleChecks:     k.M.Oracle.Checks(),
	}
}
