package vcache_test

import (
	"fmt"

	"vcache"
)

// ExampleNewSystem boots a simulated HP 9000/720 under the paper's full
// consistency policy and drives a process through an unaligned-alias
// sharing pattern; the oracle confirms no stale value was ever
// delivered.
func ExampleNewSystem() {
	sys, err := vcache.NewSystem(vcache.PolicyNew())
	if err != nil {
		panic(err)
	}
	k := sys.Kernel()
	p, err := k.Spawn(nil, 0, 8)
	if err != nil {
		panic(err)
	}
	if err := k.TouchHeap(p, 0, 32); err != nil {
		panic(err)
	}
	if err := k.ReadHeap(p, 0, 32); err != nil {
		panic(err)
	}
	k.Exit(p)
	fmt.Println("stale transfers:", sys.Violations())
	// Output: stale transfers: 0
}

// ExampleRunAliasMicro reproduces the paper's Section 2.5 observation:
// writes through an unaligned alias pair are vastly more expensive than
// through an aligned pair.
func ExampleRunAliasMicro() {
	aligned, _ := vcache.RunAliasMicro(vcache.PolicyNew(), 10000, true)
	unaligned, _ := vcache.RunAliasMicro(vcache.PolicyNew(), 10000, false)
	fmt.Println("aligned needed cache ops:", aligned.DFlushes+aligned.DPurges > 100)
	fmt.Println("unaligned needed cache ops:", unaligned.DFlushes+unaligned.DPurges > 100)
	// Output:
	// aligned needed cache ops: false
	// unaligned needed cache ops: true
}

// ExamplePolicies lists the paper's cumulative configurations.
func ExamplePolicies() {
	for _, p := range vcache.Policies() {
		fmt.Printf("%s: %s\n", p.Label, p.Name)
	}
	// Output:
	// A: old (eager, unaligned)
	// B: +lazy unmap
	// C: +align pages
	// D: +aligned prepare
	// E: +need data
	// F: +will overwrite
}

// ExampleSystem_sharedPage is the Unix-server scenario: two address
// spaces exchanging requests and responses over a shared page, run once
// with the page at caller-fixed, unaligned addresses (configuration B,
// the original Mach Unix server) and once at kernel-chosen, aligned ones
// (configuration C, "+align pages"). Aligning the page removes the
// per-transaction cache management of Section 4.2's "Shared pages in the
// Unix server": both mappings land on one cache page, and the physically
// tagged cache resolves them without software help.
func ExampleSystem_sharedPage() {
	const transactions = 500
	for _, label := range []string{"B", "C"} {
		p, err := vcache.PolicyByLabel(label)
		if err != nil {
			panic(err)
		}
		sys, err := vcache.NewSystem(p)
		if err != nil {
			panic(err)
		}
		k := sys.Kernel()
		proc, err := k.Spawn(nil, 0, 4)
		if err != nil {
			panic(err)
		}
		// Warm up the channel, then measure steady state.
		if err := k.Syscall(proc); err != nil {
			panic(err)
		}
		k.M.Clock.Reset()
		k.M.ResetStats()
		k.PM.ResetStats()
		for i := 0; i < transactions; i++ {
			if err := k.Syscall(proc); err != nil {
				panic(err)
			}
		}
		s, srv := k.PM.Stats(), k.Server.Stats()
		fmt.Printf("%s: aligned channels %d/%d, cycles/txn %d, consistency faults/txn %.1f, flushes %d, purges %d, stale transfers %d\n",
			p.Name, srv.AlignedChannels, srv.Attaches, k.M.Clock.Cycles()/transactions,
			float64(s.ConsistencyFaults)/transactions, s.DFlushPages, s.DPurgePages, sys.Violations())
	}
	// Output:
	// +lazy unmap: aligned channels 0/1, cycles/txn 1932, consistency faults/txn 4.0, flushes 1000, purges 1000, stale transfers 0
	// +align pages: aligned channels 1/1, cycles/txn 48, consistency faults/txn 0.0, flushes 0, purges 0, stale transfers 0
}
