package kernel

import (
	"fmt"

	"vcache/internal/sim"
)

// Deterministic preemption scheduler. On a multiprocessor the
// interesting consistency work is what happens when a process's pages
// are touched from *another* CPU (the other-role columns of the paper's
// Table 2). Static pid-round-robin pinning never produces that traffic:
// each space's lines live in exactly one CPU's caches forever. The
// scheduler fixes this by migrating processes between CPUs at a fixed
// cycle quantum, with the target CPU drawn from a seeded generator —
// the interleaving is arbitrary but exactly reproducible, so results
// stay byte-identical run to run.
//
// Preemption points sit at the top of every public process operation,
// *before* the operation is entered: a migration is itself a recorded
// top-level op ("sched pid=… cpu=…"), so a recorded run's op log
// replays to the identical interleaving on a scheduler-less kernel —
// the replayed Migrate calls reproduce every shootdown and charge at
// the same cycle counts (closure is proven in internal/replay tests).
//
// The scheduler is created disarmed. Workload Setup runs with
// preemption off — Setup precedes the clock reset and the op log, so a
// migration there would desynchronize recorded and replayed runs — and
// the harness arms it (StartSched) when measurement begins. Snapshot
// forks clone the armed state, so warm-boot runs behave identically to
// cold boots.

// SchedConfig configures deterministic preemption. The zero value (the
// default, and the paper's uniprocessor) disables it.
type SchedConfig struct {
	// Quantum is the preemption interval in cycles: at the first
	// operation boundary at or past each quantum tick, the entering
	// process is considered for migration. 0 disables the scheduler.
	Quantum uint64
	// Seed seeds the CPU-selection generator.
	Seed uint64
}

// sched is the kernel's scheduler state. It is a plain value (the rng
// is embedded by value), so Clone copies it with a struct assignment.
type sched struct {
	quantum uint64
	rng     sim.Rand
	nextDue uint64
	armed   bool
}

// StartSched arms the preemption scheduler: the first quantum expires
// one quantum from the current cycle count. The harness calls this at
// the start of the measured phase; it is a no-op when the kernel has no
// scheduler (uniprocessor, zero quantum, or a replay kernel).
func (k *Kernel) StartSched() {
	if k.sched == nil {
		return
	}
	k.sched.armed = true
	k.sched.nextDue = k.M.Clock.Cycles() + k.sched.quantum
}

// preempt is the scheduling point at the top of every public process
// operation. It must run before opEnter: the Migrate it issues is a
// recorded operation in its own right.
func (k *Kernel) preempt(p *Process) {
	s := k.sched
	if s == nil || !s.armed || k.opDepth != 0 || p == nil {
		return
	}
	now := k.M.Clock.Cycles()
	if now < s.nextDue {
		return
	}
	s.nextDue = now + s.quantum
	cpu := s.rng.Intn(k.M.NumCPUs())
	if cpu == p.CPU {
		return
	}
	// cpu is in range by construction, so Migrate cannot fail.
	_ = k.Migrate(p, cpu)
}

// Migrate moves a process to another CPU: the CPU it leaves is sent a
// TLB shootdown for the whole space (it must retain no translations of
// a space it no longer runs), the Unix server's channel bookkeeping is
// rebound, and execution continues on the new CPU. The process's cached
// data is deliberately NOT flushed — aligned lines stay coherent in
// hardware, and unaligned consistency remains the pmap layer's job;
// migration is exactly the event that makes the latter's other-CPU
// cells load-bearing.
//
// Migrate is public because it is the replay surface: the executor
// re-issues recorded "sched" ops through it, reproducing the recorded
// interleaving (including the shootdown charge) on a kernel with no
// scheduler of its own.
func (k *Kernel) Migrate(p *Process, cpu int) error {
	k.opEnter()
	defer k.opExit()
	if cpu < 0 || cpu >= k.M.NumCPUs() {
		return fmt.Errorf("kernel: migrate pid %d to cpu %d: out of range [0,%d)", p.ID, cpu, k.M.NumCPUs())
	}
	if cpu != p.CPU {
		k.M.ShootdownSpace(p.CPU, p.Space.ID)
		p.CPU = cpu
		k.Server.SetCPU(p.Space, cpu)
		k.M.SetCurrentCPU(cpu)
	}
	k.oplogf("sched pid=%d cpu=%d", func() []any { return []any{p.ID, cpu} })
	return nil
}
