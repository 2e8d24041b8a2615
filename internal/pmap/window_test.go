package pmap

import (
	"slices"
	"testing"

	"vcache/internal/arch"
	"vcache/internal/machine"
	"vcache/internal/mem"
	"vcache/internal/policy"
)

// geomWithColors builds a valid geometry whose data cache holds n pages
// (n colors), n a power of two — deliberately not the HP 720's 64.
func geomWithColors(t *testing.T, n uint64) arch.Geometry {
	t.Helper()
	g := arch.Geometry{
		PageSize:   4096,
		LineSize:   32,
		DCacheSize: n * 4096,
		ICacheSize: n * 4096,
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("geometry with %d colors invalid: %v", n, err)
	}
	if g.DCachePages() != n {
		t.Fatalf("geometry has %d colors, want %d", g.DCachePages(), n)
	}
	return g
}

// TestWindowPoolNonHP720Geometries exercises the pool's color recovery
// under color counts other than the HP 720's 64. The historical release
// path reduced the raw VPN modulo the color count, which is only correct
// while windowBaseVPN is itself a multiple of the count — exactly the
// kind of silent assumption a new cache variant breaks. Acquire every
// slot of every color, release them in a scrambled order, and drain the
// pool again: any window returned to the wrong color list shows up as a
// wrong-colored VPN or premature exhaustion.
func TestWindowPoolNonHP720Geometries(t *testing.T) {
	for _, n := range []uint64{2, 8, 16} {
		wp := newWindowPool(geomWithColors(t, n))
		var all []arch.VPN
		for c := uint64(0); c < n; c++ {
			for s := uint64(0); s < windowSlotsPerColor; s++ {
				vpn := wp.acquire(arch.CachePage(c))
				if got := uint64(vpn-windowBaseVPN) % n; got != c {
					t.Fatalf("%d colors: acquire(%d) returned vpn %#x of color %d", n, c, uint64(vpn), got)
				}
				all = append(all, vpn)
			}
		}
		// Scrambled release: stride through the acquisitions so colors
		// interleave, then re-drain every color completely.
		for stride := 0; stride < 3; stride++ {
			for i := stride; i < len(all); i += 3 {
				wp.release(all[i])
			}
		}
		for c := uint64(0); c < n; c++ {
			if got := len(wp.free[c]); got != windowSlotsPerColor {
				t.Fatalf("%d colors: color %d has %d free windows after full release, want %d",
					n, c, got, windowSlotsPerColor)
			}
			for s := 0; s < windowSlotsPerColor; s++ {
				vpn := wp.acquire(arch.CachePage(c))
				if got := uint64(vpn-windowBaseVPN) % n; got != c {
					t.Fatalf("%d colors: re-acquire(%d) returned vpn of color %d", n, c, got)
				}
			}
		}
	}
}

// TestPrepareOnNonHP720Geometry runs the zero-fill and page-copy
// preparation paths end to end on an 8-color machine: the window pool,
// the aligned-prepare color choice, and the bulk paths all see a color
// count they were not tuned on, and the pool must come back fully
// stocked (a mis-colored release leaks a window per operation and
// exhausts the pool within a few copies).
func TestPrepareOnNonHP720Geometry(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Geometry = geomWithColors(t, 8)
	cfg.Frames = 64
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	al, err := mem.NewAllocator(cfg.Geometry, cfg.Frames, 8, mem.SingleList)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{m: m, al: al}
	r.p = New(m, al, policy.New().Features)
	m.SetFaultHandler(r)

	src, err := r.p.AllocFrame(0)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := r.p.AllocFrame(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := r.p.ZeroPage(src, arch.VPN(0x100+i)); err != nil {
			t.Fatalf("zero %d: %v", i, err)
		}
		if err := r.p.CopyPage(src, dst, arch.VPN(0x200+i)); err != nil {
			t.Fatalf("copy %d: %v", i, err)
		}
	}
	for c := range r.p.windows.free {
		if got := len(r.p.windows.free[c]); got != windowSlotsPerColor {
			t.Errorf("color %d: %d free windows after prepares, want %d", c, got, windowSlotsPerColor)
		}
	}
	if v := m.Oracle.Violations(); len(v) != 0 {
		t.Fatalf("stale transfer on non-HP720 geometry: %v", v[0])
	}
}

// TestCloneWindowPoolIsolated acquires two windows of one color through
// a clone and releases them out of order, leaving that clone's list
// reordered. The original's and a sibling clone's lists, spare capacity
// included, must be untouched.
func TestCloneWindowPoolIsolated(t *testing.T) {
	r := newRig(t, lazyFeatures())
	a, sib := r.p.Clone(r.m.Clone()), r.p.Clone(r.m.Clone())
	full := func(l []arch.VPN) []arch.VPN { return slices.Clone(l[:cap(l)]) }
	orig, sibling := full(r.p.windows.free[3]), full(sib.windows.free[3])
	w1 := a.windows.acquire(3)
	w2 := a.windows.acquire(3)
	a.windows.release(w1)
	a.windows.release(w2)
	if slices.Equal(full(a.windows.free[3]), orig) {
		t.Fatal("out-of-order release left the clone's list as it was")
	}
	if !slices.Equal(full(r.p.windows.free[3]), orig) || !slices.Equal(full(sib.windows.free[3]), sibling) {
		t.Fatalf("clone's window traffic reached the original %v or a sibling %v", r.p.windows.free[3], sib.windows.free[3])
	}
}
