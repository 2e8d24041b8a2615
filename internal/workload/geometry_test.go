package workload

import (
	"testing"

	"vcache/internal/arch"
	"vcache/internal/kernel"
	"vcache/internal/policy"
)

// TestAlternateGeometries runs the stress workload on machines shaped
// unlike the HP 720 — bigger pages, smaller caches, fewer colors — to
// prove nothing in the consistency machinery is hard-wired to the
// paper's geometry.
func TestAlternateGeometries(t *testing.T) {
	geoms := []struct {
		name string
		g    arch.Geometry
	}{
		{"8k-pages", arch.Geometry{PageSize: 8192, LineSize: 32, DCacheSize: 256 * 1024, ICacheSize: 128 * 1024}},
		{"small-cache", arch.Geometry{PageSize: 4096, LineSize: 32, DCacheSize: 64 * 1024, ICacheSize: 32 * 1024}},
		{"big-lines", arch.Geometry{PageSize: 4096, LineSize: 128, DCacheSize: 256 * 1024, ICacheSize: 128 * 1024}},
		{"tiny", arch.Geometry{PageSize: 1024, LineSize: 16, DCacheSize: 16 * 1024, ICacheSize: 8 * 1024}},
	}
	for _, gg := range geoms {
		gg := gg
		t.Run(gg.name, func(t *testing.T) {
			if err := gg.g.Validate(); err != nil {
				t.Fatalf("geometry invalid: %v", err)
			}
			for _, cfg := range []policy.Config{policy.Old(), policy.New()} {
				kc := kernel.DefaultConfig(cfg)
				kc.Machine.Geometry = gg.g
				kc.Machine.Frames = 2048
				r, err := runOnce(Stress(13, 250), cfg, Full(), &kc)
				if err != nil {
					t.Fatalf("%s: %v", cfg.Label, err)
				}
				if r.OracleViolations != 0 {
					t.Fatalf("%s: %d stale transfers", cfg.Label, r.OracleViolations)
				}
			}
		})
	}
}

// TestAlignmentStillWinsOnAlternateGeometry: the headline result is
// geometry-independent — the aligned alias loop beats the unaligned one
// regardless of page or cache size. (Exercised through the kernel-level
// microbenchmark on the default geometry; here we check the cost ratios
// survive a smaller cache, where fewer colors mean alignment is easier
// to get by luck but just as valuable.)
func TestSmallCacheBenchmark(t *testing.T) {
	kc := kernel.DefaultConfig(policy.New())
	kc.Machine.Geometry = arch.Geometry{PageSize: 4096, LineSize: 32, DCacheSize: 64 * 1024, ICacheSize: 32 * 1024}
	rNew, err := runOnce(KernelBuild(), policy.New(), Small(), &kc)
	if err != nil {
		t.Fatal(err)
	}
	kcOld := kc
	rOld, err := runOnce(KernelBuild(), policy.Old(), Small(), &kcOld)
	if err != nil {
		t.Fatal(err)
	}
	if rNew.OracleViolations+rOld.OracleViolations != 0 {
		t.Fatal("stale transfers on small cache")
	}
	if rNew.Seconds > rOld.Seconds*1.02 {
		t.Errorf("small cache: new (%.3fs) slower than old (%.3fs)", rNew.Seconds, rOld.Seconds)
	}
}
