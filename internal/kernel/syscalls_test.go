package kernel

import (
	"strings"
	"testing"

	"vcache/internal/arch"
	"vcache/internal/policy"
)

// readHeapWord reads one word of a process heap page directly, for
// content assertions.
func readHeapWord(t *testing.T, k *Kernel, p *Process, page, word uint64) uint64 {
	t.Helper()
	v, err := k.M.Read(p.Space.ID, p.HeapVA(k.Geometry(), page, word))
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func writeHeapWord(t *testing.T, k *Kernel, p *Process, page, word, v uint64) {
	t.Helper()
	if err := k.M.Write(p.Space.ID, p.HeapVA(k.Geometry(), page, word), v); err != nil {
		t.Fatal(err)
	}
}

// TestFileDataRoundTrip verifies actual data content through the whole
// stack: user heap → buffer cache → disk → buffer cache → another
// process's heap.
func TestFileDataRoundTrip(t *testing.T) {
	k := bootT(t, policy.New())
	p1, err := k.Spawn(nil, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	for w := uint64(0); w < 8; w++ {
		writeHeapWord(t, k, p1, 0, w*60, 0xF00+w)
	}
	f, err := k.CreateFile(p1, "t")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.WriteFilePage(p1, f, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := k.FS.Sync(); err != nil {
		t.Fatal(err)
	}

	p2, err := k.Spawn(nil, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.ReadFilePage(p2, f, 0, 3); err != nil {
		t.Fatal(err)
	}
	for w := uint64(0); w < 8; w++ {
		if got := readHeapWord(t, k, p2, 3, w*60); got != 0xF00+w {
			t.Fatalf("word %d = %#x", w, got)
		}
	}
	checkClean(t, k, policy.New())
}

// TestDirectReadDataContent verifies the demand-paging path delivers the
// same bytes as the buffered path.
func TestDirectReadDataContent(t *testing.T) {
	k := bootT(t, policy.New())
	p, err := k.Spawn(nil, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	writeHeapWord(t, k, p, 0, 9, 4242)
	f, err := k.CreateFile(p, "d")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.WriteFilePage(p, f, 0, 0); err != nil {
		t.Fatal(err)
	}
	// Dirty the destination page, then DMA the file data over it.
	writeHeapWord(t, k, p, 5, 9, 1)
	if err := k.ReadFilePageDirect(p, f, 0, 5); err != nil {
		t.Fatal(err)
	}
	if got := readHeapWord(t, k, p, 5, 9); got != 4242 {
		t.Fatalf("direct read word = %d", got)
	}
	checkClean(t, k, policy.New())
}

// TestIPCDataContent verifies a transferred page carries its bytes.
func TestIPCDataContent(t *testing.T) {
	for _, cfg := range []policy.Config{policy.ConfigB(), policy.New()} {
		k := bootT(t, cfg)
		a, _ := k.Spawn(nil, 0, 8)
		b, _ := k.Spawn(nil, 0, 8)
		writeHeapWord(t, k, a, 2, 7, 1717)
		vpn, err := k.SendHeapPage(a, 2, b)
		if err != nil {
			t.Fatal(err)
		}
		va := k.Geometry().PageBase(vpn) + 7*arch.WordSize
		got, err := k.M.Read(b.Space.ID, va)
		if err != nil {
			t.Fatal(err)
		}
		if got != 1717 {
			t.Fatalf("%s: transferred word = %d", cfg.Label, got)
		}
		// The sender no longer maps the page.
		if _, err := k.M.Read(a.Space.ID, a.HeapVA(k.Geometry(), 2, 7)); err == nil {
			// The heap page is gone from the region's object; the
			// next touch would zero-fill a fresh page — reading 0 is
			// also acceptable, but it must not be the old data
			// through a stale mapping.
			if v := readHeapWord(t, k, a, 2, 7); v == 1717 {
				t.Fatal("sender still reads the transferred page")
			}
		}
		checkClean(t, k, cfg)
	}
}

// TestForkIsolation verifies full fork semantics across parent/child
// writes under every configuration.
func TestForkIsolation(t *testing.T) {
	for _, cfg := range policy.Configs() {
		k := bootT(t, cfg)
		parent, _ := k.Spawn(nil, 0, 8)
		writeHeapWord(t, k, parent, 0, 0, 100)
		writeHeapWord(t, k, parent, 1, 0, 101)

		child, err := k.Fork(parent)
		if err != nil {
			t.Fatal(err)
		}
		if got := readHeapWord(t, k, child, 0, 0); got != 100 {
			t.Fatalf("%s: child read %d", cfg.Label, got)
		}
		writeHeapWord(t, k, child, 0, 0, 200)
		if got := readHeapWord(t, k, parent, 0, 0); got != 100 {
			t.Fatalf("%s: parent sees child write: %d", cfg.Label, got)
		}
		writeHeapWord(t, k, parent, 1, 0, 201)
		if got := readHeapWord(t, k, child, 1, 0); got != 101 {
			t.Fatalf("%s: child sees parent post-fork write: %d", cfg.Label, got)
		}
		k.Exit(child)
		if got := readHeapWord(t, k, parent, 0, 0); got != 100 {
			t.Fatalf("%s: parent heap damaged by child exit: %d", cfg.Label, got)
		}
		k.Exit(parent)
		checkClean(t, k, cfg)
	}
}

// TestTextExecutionContent verifies fetched instructions match the file
// image bytes, across respawns that recycle text frames.
func TestTextExecutionContent(t *testing.T) {
	k := bootT(t, policy.New())
	img, err := k.FS.Create("bin/prog")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.WriteFileContent(img, 2); err != nil {
		t.Fatal(err)
	}
	if err := k.FS.Sync(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		p, err := k.Spawn(img, 2, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := k.RunText(p, 32); err != nil {
			t.Fatal(err)
		}
		// Fetch a specific instruction and compare against the file
		// content via a fresh buffered read.
		va := k.Geometry().PageBase(p.Text.Start)
		insn, err := k.M.Fetch(p.Space.ID, va)
		if err != nil {
			t.Fatal(err)
		}
		b, err := k.FS.GetBuffer(img, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		fileWord, err := k.M.Read(arch.KernelSpace, k.FS.VA(b, 0))
		if err != nil {
			t.Fatal(err)
		}
		if insn != fileWord {
			t.Fatalf("round %d: fetched %#x, file has %#x", round, insn, fileWord)
		}
		k.Exit(p)
	}
	checkClean(t, k, policy.New())
}

func TestHeapBounds(t *testing.T) {
	k := bootT(t, policy.New())
	p, _ := k.Spawn(nil, 0, 2)
	if err := k.TouchHeap(p, 5, 8); err == nil {
		t.Error("out-of-range heap page accepted")
	}
	if err := k.RunText(p, 8); err == nil {
		t.Error("RunText without text accepted")
	}
	if p.HasText() {
		t.Error("HasText on textless process")
	}
}

// TestHeapPageRangeEveryCall: every call that names a heap page rejects
// one outside the heap. 1<<60 is the dangerous case: its address wraps
// around to heap page 0, so an unchecked call silently used that page.
func TestHeapPageRangeEveryCall(t *testing.T) {
	k := bootT(t, policy.New())
	p, _ := k.Spawn(nil, 0, 2)
	q, _ := k.Spawn(nil, 0, 2)
	f, err := k.CreateFile(p, "f")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.WriteFilePage(p, f, 0, 0); err != nil {
		t.Fatal(err)
	}
	if got := p.HeapVA(k.Geometry(), 1<<60, 0); got != p.HeapVA(k.Geometry(), 0, 0) {
		t.Fatalf("heap page 1<<60 is at %#x, not heap page 0's address: the test no longer probes the wrap", uint64(got))
	}
	for _, page := range []uint64{2, 1 << 60} {
		calls := map[string]func() error{
			"TouchHeap":          func() error { return k.TouchHeap(p, page, 8) },
			"ReadHeap":           func() error { return k.ReadHeap(p, page, 8) },
			"ReadFilePage":       func() error { return k.ReadFilePage(p, f, 0, page) },
			"WriteFilePage":      func() error { return k.WriteFilePage(p, f, 0, page) },
			"ReadFilePageDirect": func() error { return k.ReadFilePageDirect(p, f, 0, page) },
			"SendHeapPage":       func() error { _, err := k.SendHeapPage(p, page, q); return err },
			"SharePage":          func() error { _, err := k.SharePage(p, page, q); return err },
		}
		for name, call := range calls {
			if err := call(); err == nil || !strings.Contains(err.Error(), "out of range") {
				t.Errorf("%s with heap page %d: got %v, want an out-of-range error", name, page, err)
			}
		}
	}
	checkClean(t, k, policy.New())
}

// TestPageRunWordCounts: every page-run call performs no access for a
// word count of zero (it used to perform one) and rejects a negative
// count, which a replay program could produce from a value past
// math.MaxInt.
func TestPageRunWordCounts(t *testing.T) {
	k := bootT(t, policy.New())
	img, err := k.FS.Create("bin/tool")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.WriteFileContent(img, 2); err != nil {
		t.Fatal(err)
	}
	p, err := k.Spawn(img, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.TouchHeap(p, 0, 8); err != nil {
		t.Fatal(err)
	}
	vpn := k.Geometry().PageOf(p.HeapVA(k.Geometry(), 0, 0))
	calls := map[string]func(words int) error{
		"TouchHeap": func(w int) error { return k.TouchHeap(p, 1, w) },
		"ReadHeap":  func(w int) error { return k.ReadHeap(p, 1, w) },
		"RunText":   func(w int) error { return k.RunText(p, w) },
		"ReadPage":  func(w int) error { return k.ReadPage(p, vpn, w) },
		"WritePage": func(w int) error { return k.WritePage(p, vpn, w) },
	}
	for name, call := range calls {
		before := k.M.Stats()
		if err := call(0); err != nil {
			t.Errorf("%s(words=0): %v", name, err)
		}
		if after := k.M.Stats(); after.Reads != before.Reads || after.Writes != before.Writes || after.Fetches != before.Fetches {
			t.Errorf("%s(words=0) performed accesses: %+v -> %+v", name, before, after)
		}
		if err := call(-1); err == nil || !strings.Contains(err.Error(), "negative word count") {
			t.Errorf("%s(words=-1): got %v, want a negative-word-count error", name, err)
		}
	}
	checkClean(t, k, policy.New())
}

func TestProcessChurnRecyclesFrames(t *testing.T) {
	// Enough spawn/exit cycles to wrap the free list several times;
	// every configuration must stay correct.
	for _, cfg := range []policy.Config{policy.Old(), policy.New()} {
		k := bootT(t, cfg)
		for i := 0; i < 60; i++ {
			p, err := k.Spawn(nil, 0, 16)
			if err != nil {
				t.Fatal(err)
			}
			for pg := uint64(0); pg < 16; pg++ {
				if err := k.TouchHeap(p, pg, 16); err != nil {
					t.Fatal(err)
				}
			}
			for pg := uint64(0); pg < 16; pg++ {
				if err := k.ReadHeap(p, pg, 16); err != nil {
					t.Fatal(err)
				}
			}
			k.Exit(p)
		}
		checkClean(t, k, cfg)
	}
}
