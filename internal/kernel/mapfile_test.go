package kernel

import (
	"testing"

	"vcache/internal/arch"
	"vcache/internal/policy"
)

// TestMapFileReadsContent verifies the mmap-style path: file data paged
// in on first touch matches the file bytes, and the mapping is
// read-only.
func TestMapFileReadsContent(t *testing.T) {
	for _, cfg := range []policy.Config{policy.Old(), policy.New()} {
		k := bootT(t, cfg)
		f, err := k.FS.Create("data/map")
		if err != nil {
			t.Fatal(err)
		}
		if err := k.WriteFileContent(f, 3); err != nil {
			t.Fatal(err)
		}
		if err := k.FS.Sync(); err != nil {
			t.Fatal(err)
		}
		p, err := k.Spawn(nil, 0, 4)
		if err != nil {
			t.Fatal(err)
		}
		vpn, _, err := k.MapFile(p, f, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		geom := k.Geometry()
		// Compare the mapped words against a buffered read of the file.
		for pg := uint64(0); pg < 3; pg++ {
			b, err := k.FS.GetBuffer(f, pg, false)
			if err != nil {
				t.Fatal(err)
			}
			want, err := k.M.Read(arch.KernelSpace, k.FS.VA(b, 8))
			if err != nil {
				t.Fatal(err)
			}
			va := geom.PageBase(vpn+arch.VPN(pg)) + 8*arch.WordSize
			got, err := k.M.Read(p.Space.ID, va)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s: mapped page %d word = %#x, file has %#x", cfg.Label, pg, got, want)
			}
		}
		// Writes are rejected.
		if err := k.M.Write(p.Space.ID, geom.PageBase(vpn), 1); err == nil {
			t.Error("write to read-only file mapping succeeded")
		}
		if k.VM.Stats().FilePageIns == 0 {
			t.Error("no file page-ins counted")
		}
		k.Exit(p)
		checkClean(t, k, cfg)
	}
}

// TestMapFileSharedAcrossProcesses: the same file object mapped into two
// processes at kernel-chosen (generally different) addresses shares the
// paged-in frames — read-only aliases the consistency machinery must
// track.
func TestMapFileSharedAcrossProcesses(t *testing.T) {
	k := bootT(t, policy.New())
	f, err := k.FS.Create("lib/shared")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.WriteFileContent(f, 2); err != nil {
		t.Fatal(err)
	}
	p1, _ := k.Spawn(nil, 0, 4)
	p2, _ := k.Spawn(nil, 0, 4)
	vpn1, obj, err := k.MapFile(p1, f, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	vpn2, _, err := k.MapFile(p2, f, obj, 0)
	if err != nil {
		t.Fatal(err)
	}
	geom := k.Geometry()
	ins := k.VM.Stats().FilePageIns
	v1, err := k.M.Read(p1.Space.ID, geom.PageBase(vpn1))
	if err != nil {
		t.Fatal(err)
	}
	v2, err := k.M.Read(p2.Space.ID, geom.PageBase(vpn2))
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Fatalf("shared mapping diverged: %#x vs %#x", v1, v2)
	}
	// The second process reused the first's paged-in frame.
	if got := k.VM.Stats().FilePageIns - ins; got != 1 {
		t.Errorf("%d page-ins for one shared page", got)
	}
	k.Exit(p2)
	k.Exit(p1)
	checkClean(t, k, policy.New())
}

// TestMapFileEvictsAndRecovers: mapped-file pages are dropped (not
// swapped) under pressure and re-paged from the file system.
func TestMapFileEvictsAndRecovers(t *testing.T) {
	k := tinyBoot(t, policy.New(), 192)
	f, err := k.FS.Create("big/map")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.WriteFileContent(f, 4); err != nil {
		t.Fatal(err)
	}
	if err := k.FS.Sync(); err != nil {
		t.Fatal(err)
	}
	p, _ := k.Spawn(nil, 0, 4)
	vpn, _, err := k.MapFile(p, f, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	geom := k.Geometry()
	first, err := k.M.Read(p.Space.ID, geom.PageBase(vpn))
	if err != nil {
		t.Fatal(err)
	}
	// Evict with a hog.
	hog, _ := k.Spawn(nil, 0, 150)
	for pg := uint64(0); pg < 150; pg++ {
		if err := k.TouchHeap(hog, pg, 4); err != nil {
			t.Fatal(err)
		}
	}
	again, err := k.M.Read(p.Space.ID, geom.PageBase(vpn))
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Fatalf("re-paged file data changed: %#x vs %#x", again, first)
	}
	k.Exit(hog)
	k.Exit(p)
	checkClean(t, k, policy.New())
}
