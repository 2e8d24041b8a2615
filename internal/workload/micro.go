package workload

import (
	"fmt"

	"vcache/internal/arch"
	"vcache/internal/kernel"
	"vcache/internal/policy"
	"vcache/internal/vm"
)

// AliasMicroResult reports the Section 2.5 contrived benchmark: a single
// thread repeatedly writing one physical address through two virtual
// addresses. When the addresses align the loop runs at cache speed; when
// they do not, every write is a consistency fault with a flush or purge,
// and the paper observes the loop going from a fraction of a second to
// over two minutes.
type AliasMicroResult struct {
	Config   policy.Config
	Aligned  bool
	Writes   int
	Seconds  float64
	Cycles   uint64
	Faults   uint64
	DFlushes uint64
	DPurges  uint64
}

// RunAliasMicro maps one physical page at two virtual addresses of the
// same process (aligned or not) and performs `writes` stores alternating
// between them.
func RunAliasMicro(cfg policy.Config, writes int, aligned bool) (AliasMicroResult, error) {
	k, space, va, err := aliasSetup(cfg, aligned)
	if err != nil {
		return AliasMicroResult{}, err
	}
	k.M.Clock.Reset()
	k.M.ResetStats()
	k.PM.ResetStats()

	for i := 0; i < writes; i++ {
		if err := k.M.Write(space, va[i&1], uint64(i)); err != nil {
			return AliasMicroResult{}, fmt.Errorf("alias write %d: %w", i, err)
		}
	}
	// Read back through both addresses; the oracle verifies freshness.
	for _, a := range va {
		if _, err := k.M.Read(space, a); err != nil {
			return AliasMicroResult{}, err
		}
	}
	if v := k.M.Oracle.Violations(); len(v) != 0 {
		return AliasMicroResult{}, fmt.Errorf("alias micro: stale transfer: %v", v[0])
	}

	ps := k.PM.Stats()
	return AliasMicroResult{
		Config:   cfg,
		Aligned:  aligned,
		Writes:   writes,
		Seconds:  k.M.Clock.Seconds(),
		Cycles:   k.M.Clock.Cycles(),
		Faults:   k.M.Stats().Faults,
		DFlushes: ps.DFlushPages,
		DPurges:  ps.DPurgePages,
	}, nil
}

// aliasSetup boots a system under cfg and maps one physical page at two
// virtual addresses of one process — of the same cache color when
// aligned, one color apart otherwise — touched once through the first so
// a timed loop measures steady state.
func aliasSetup(cfg policy.Config, aligned bool) (k *kernel.Kernel, space arch.SpaceID, va [2]arch.VA, err error) {
	k, err = kernel.New(kernel.DefaultConfig(cfg))
	if err != nil {
		return nil, 0, va, err
	}
	p, err := k.Spawn(nil, 0, 4)
	if err != nil {
		return nil, 0, va, err
	}
	geom := k.Geometry()
	obj := k.VM.NewObject()

	base := arch.VPN(0x40000) // color 0
	second := base + arch.VPN(geom.DCachePages())
	if !aligned {
		second = base + arch.VPN(geom.DCachePages()) + 1 // color 1
	}
	for i, vpn := range []arch.VPN{base, second} {
		r, err := k.VM.MapObject(p.Space, obj, 0, 1, vpn, arch.NoCachePage, arch.ProtReadWrite, false, vm.KindShared)
		if err != nil {
			return nil, 0, va, err
		}
		va[i] = geom.PageBase(r.Start)
	}
	if err := k.M.Write(p.Space.ID, va[0], 1); err != nil {
		return nil, 0, va, err
	}
	return k, p.Space.ID, va, nil
}
