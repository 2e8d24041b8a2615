package fs

import (
	"fmt"
	"testing"

	"vcache/internal/arch"
	"vcache/internal/dma"
	"vcache/internal/machine"
	"vcache/internal/mem"
	"vcache/internal/pmap"
	"vcache/internal/policy"
)

type rig struct {
	m    *machine.Machine
	pm   *pmap.Pmap
	fs   *FileSystem
	disk *dma.Disk
}

// HandleFault resolves consistency traps on the kernel buffer mappings.
func (r *rig) HandleFault(f machine.Fault) error {
	vpn := r.m.Geom.PageOf(f.VA)
	if f.Kind == machine.FaultModify {
		return r.pm.ModifyFault(f.Space, vpn)
	}
	if _, ok := r.pm.Translate(f.Space, vpn); !ok {
		return fmt.Errorf("unmapped kernel page %#x", uint64(vpn))
	}
	return r.pm.Access(f.Space, vpn, f.Access, false)
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	mc := machine.DefaultConfig()
	mc.Frames = 512
	m, err := machine.New(mc)
	if err != nil {
		t.Fatal(err)
	}
	al, err := mem.NewAllocator(mc.Geometry, mc.Frames, 8, mem.SingleList)
	if err != nil {
		t.Fatal(err)
	}
	pm := pmap.New(m, al, policy.New().Features)
	r := &rig{m: m, pm: pm, disk: dma.NewDisk(m)}
	m.SetFaultHandler(r)
	fsys, err := New(m, pm, r.disk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.fs = fsys
	return r
}

// writeWord stores v in word w of buffer b through its kernel mapping,
// as the kernel's write(2) copy does, and marks the buffer dirty.
func (r *rig) writeWord(b *Buffer, w, v uint64) error {
	if err := r.m.Write(arch.KernelSpace, r.fs.VA(b, w), v); err != nil {
		return err
	}
	r.fs.MarkDirty(b)
	return nil
}

// readWord loads word w of buffer b through its kernel mapping.
func (r *rig) readWord(b *Buffer, w uint64) (uint64, error) {
	return r.m.Read(arch.KernelSpace, r.fs.VA(b, w))
}

func (r *rig) check(t *testing.T) {
	t.Helper()
	if v := r.m.Oracle.Violations(); len(v) != 0 {
		t.Fatalf("stale transfer: %v", v[0])
	}
}

func TestCreateOpenRemove(t *testing.T) {
	r := newRig(t, DefaultConfig())
	f, err := r.fs.Create("a/b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.fs.Create("a/b"); err == nil {
		t.Error("duplicate create accepted")
	}
	got, err := r.fs.Open("a/b")
	if err != nil || got != f {
		t.Fatal("open did not return the file")
	}
	if _, err := r.fs.Open("nope"); err == nil {
		t.Error("open of missing file accepted")
	}
	if err := r.fs.Remove("a/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.fs.Open("a/b"); err == nil {
		t.Error("open after remove accepted")
	}
	if err := r.fs.Remove("a/b"); err == nil {
		t.Error("double remove accepted")
	}
}

func TestWriteSyncReadRoundTrip(t *testing.T) {
	r := newRig(t, Config{Buffers: 4, WriteBehindDelay: 1000})
	f, _ := r.fs.Create("data")
	b, err := r.fs.GetBuffer(f, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	for w := uint64(0); w < 8; w++ {
		if err := r.writeWord(b, w, 100+w); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.fs.Sync(); err != nil {
		t.Fatal(err)
	}
	// The data reached the disk blocks.
	blk, ok := r.fs.Disk().Peek(0)
	if !ok || blk[3] != 103 {
		t.Fatalf("disk block word 3 = %v", blk)
	}
	// Evict by touching other pages, then re-read from disk.
	for i := uint64(1); i <= 4; i++ {
		if _, err := r.fs.GetBuffer(f, i, true); err != nil {
			t.Fatal(err)
		}
	}
	misses := r.fs.Stats().Misses
	b, err = r.fs.GetBuffer(f, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.fs.Stats().Misses != misses+1 {
		t.Error("re-read did not miss")
	}
	v, err := r.readWord(b, 5)
	if err != nil {
		t.Fatal(err)
	}
	if v != 105 {
		t.Fatalf("word 5 = %d after disk round trip", v)
	}
	r.check(t)
}

func TestReadPastEndRejected(t *testing.T) {
	r := newRig(t, DefaultConfig())
	f, _ := r.fs.Create("x")
	if _, err := r.fs.GetBuffer(f, 0, false); err == nil {
		t.Error("read of empty file accepted")
	}
	if _, err := r.fs.GetBuffer(f, 0, true); err != nil {
		t.Fatal(err)
	}
	if f.Pages() != 1 {
		t.Errorf("Pages = %d", f.Pages())
	}
}

func TestWriteBehindAges(t *testing.T) {
	r := newRig(t, Config{Buffers: 8, WriteBehindDelay: 3})
	f, _ := r.fs.Create("wb")
	b, _ := r.fs.GetBuffer(f, 0, true)
	if err := r.writeWord(b, 0, 1); err != nil {
		t.Fatal(err)
	}
	writes := r.disk.Stats().Writes
	// Age the queue past the delay with unrelated buffer traffic.
	for i := uint64(1); i < 6; i++ {
		if _, err := r.fs.GetBuffer(f, i, true); err != nil {
			t.Fatal(err)
		}
	}
	if r.disk.Stats().Writes == writes {
		t.Error("write-behind never flushed the dirty buffer")
	}
	if r.fs.Stats().WriteBehind == 0 {
		t.Error("write-behind not counted")
	}
	r.check(t)
}

func TestEvictionWritesBackDirtyVictim(t *testing.T) {
	r := newRig(t, Config{Buffers: 2, WriteBehindDelay: 1 << 30})
	f, _ := r.fs.Create("small")
	b0, _ := r.fs.GetBuffer(f, 0, true)
	if err := r.writeWord(b0, 0, 42); err != nil {
		t.Fatal(err)
	}
	// Fill both buffers, forcing the dirty one out.
	if _, err := r.fs.GetBuffer(f, 1, true); err != nil {
		t.Fatal(err)
	}
	if _, err := r.fs.GetBuffer(f, 2, true); err != nil {
		t.Fatal(err)
	}
	if r.disk.Stats().Writes == 0 {
		t.Fatal("dirty eviction did not reach the disk")
	}
	// And reading it back returns the written data.
	b0, err := r.fs.GetBuffer(f, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	v, err := r.readWord(b0, 0)
	if err != nil || v != 42 {
		t.Fatalf("read back %d, %v", v, err)
	}
	r.check(t)
}

func TestReadBlockIntoUserFrame(t *testing.T) {
	r := newRig(t, DefaultConfig())
	f, _ := r.fs.Create("direct")
	b, _ := r.fs.GetBuffer(f, 0, true)
	if err := r.writeWord(b, 7, 777); err != nil {
		t.Fatal(err)
	}
	// Target user frame with dirty cached data of its own.
	uf, err := r.pm.AllocFrame(arch.NoCachePage)
	if err != nil {
		t.Fatal(err)
	}
	r.pm.Enter(1, 0x50, uf, arch.ProtReadWrite, pmap.KindUser)
	if err := r.m.Write(1, r.m.Geom.PageBase(0x50), 1); err != nil {
		t.Fatal(err)
	}

	// ReadBlockInto must write back the dirty buffer first (the disk
	// block would otherwise be stale) and purge the user frame.
	if err := r.fs.ReadBlockInto(f, 0, uf); err != nil {
		t.Fatal(err)
	}
	v, err := r.m.Read(1, r.m.Geom.PageBase(0x50)+7*arch.WordSize)
	if err != nil {
		t.Fatal(err)
	}
	if v != 777 {
		t.Fatalf("direct read delivered %d", v)
	}
	if err := r.fs.ReadBlockInto(f, 9, uf); err == nil {
		t.Error("direct read past end accepted")
	}
	r.check(t)
}

func TestBufferCacheHitAvoidsDisk(t *testing.T) {
	r := newRig(t, DefaultConfig())
	f, _ := r.fs.Create("hot")
	if _, err := r.fs.GetBuffer(f, 0, true); err != nil {
		t.Fatal(err)
	}
	reads := r.disk.Stats().Reads
	for i := 0; i < 10; i++ {
		if _, err := r.fs.GetBuffer(f, 0, false); err != nil {
			t.Fatal(err)
		}
	}
	if r.disk.Stats().Reads != reads {
		t.Error("buffer hits went to disk")
	}
	if r.fs.Stats().Hits < 10 {
		t.Errorf("Hits = %d", r.fs.Stats().Hits)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	r := newRig(t, DefaultConfig())
	if _, err := New(r.m, r.pm, r.disk, Config{Buffers: 0}); err == nil {
		t.Error("zero buffers accepted")
	}
}
