package pmap

import (
	"fmt"
	"testing"

	"vcache/internal/arch"
	"vcache/internal/machine"
	"vcache/internal/mem"
	"vcache/internal/policy"
)

// rig is a machine + pmap with a minimal trap handler: mappings must be
// entered by the test beforehand; protection and modify faults run the
// consistency algorithm, exactly as the kernel's handler would for
// resident pages.
type rig struct {
	m  *machine.Machine
	p  *Pmap
	al *mem.Allocator
}

func (r *rig) HandleFault(f machine.Fault) error {
	vpn := r.m.Geom.PageOf(f.VA)
	if f.Kind == machine.FaultModify {
		return r.p.ModifyFault(f.Space, vpn)
	}
	if _, ok := r.p.Translate(f.Space, vpn); !ok {
		return fmt.Errorf("no mapping for space %d vpn %#x", f.Space, uint64(vpn))
	}
	r.p.CountConsistencyFault()
	return r.p.Access(f.Space, vpn, f.Access, false)
}

func newRig(t *testing.T, feat policy.Features) *rig {
	t.Helper()
	return newRigCPUs(t, feat, 1)
}

// newRigCPUs is newRig on a machine of the given CPU count.
func newRigCPUs(t *testing.T, feat policy.Features, cpus int) *rig {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.Frames = 256
	cfg.CPUs = cpus
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	al, err := mem.NewAllocator(cfg.Geometry, cfg.Frames, 8, mem.SingleList)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{m: m, al: al}
	r.p = New(m, al, feat)
	m.SetFaultHandler(r)
	return r
}

func (r *rig) write(t *testing.T, space arch.SpaceID, vpn arch.VPN, word uint64, v uint64) {
	t.Helper()
	va := r.m.Geom.PageBase(vpn) + arch.VA(word*arch.WordSize)
	if err := r.m.Write(space, va, v); err != nil {
		t.Fatalf("write space %d vpn %#x: %v", space, uint64(vpn), err)
	}
}

func (r *rig) read(t *testing.T, space arch.SpaceID, vpn arch.VPN, word uint64) uint64 {
	t.Helper()
	va := r.m.Geom.PageBase(vpn) + arch.VA(word*arch.WordSize)
	v, err := r.m.Read(space, va)
	if err != nil {
		t.Fatalf("read space %d vpn %#x: %v", space, uint64(vpn), err)
	}
	return v
}

func (r *rig) checkOracle(t *testing.T) {
	t.Helper()
	if v := r.m.Oracle.Violations(); len(v) != 0 {
		t.Fatalf("stale transfers: %v", v[0])
	}
	if err := r.p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func lazyFeatures() policy.Features {
	return policy.ConfigF().Features
}

func TestEnterTranslateRemove(t *testing.T) {
	r := newRig(t, lazyFeatures())
	r.p.Enter(1, 0x10, 42, arch.ProtReadWrite, KindUser)
	f, ok := r.p.Translate(1, 0x10)
	if !ok || f != 42 {
		t.Fatalf("Translate = %d, %t", f, ok)
	}
	if p, ok := r.p.Protection(1, 0x10); !ok || p != arch.ProtNone {
		t.Errorf("initial prot = %v (mapping must start inaccessible)", p)
	}
	r.p.Remove(1, 0x10)
	if _, ok := r.p.Translate(1, 0x10); ok {
		t.Error("mapping survived Remove")
	}
	// Removing again is a no-op.
	r.p.Remove(1, 0x10)
}

func TestDoubleEnterPanics(t *testing.T) {
	r := newRig(t, lazyFeatures())
	r.p.Enter(1, 0x10, 42, arch.ProtReadWrite, KindUser)
	defer func() {
		if recover() == nil {
			t.Error("double Enter should panic")
		}
	}()
	r.p.Enter(1, 0x10, 43, arch.ProtReadWrite, KindUser)
}

func TestAccessGrantsAndSharing(t *testing.T) {
	r := newRig(t, lazyFeatures())
	f, _ := r.p.AllocFrame(arch.NoCachePage)
	// Two unaligned aliases in two spaces.
	r.p.Enter(1, 0x10, f, arch.ProtReadWrite, KindUser)
	r.p.Enter(2, 0x11, f, arch.ProtReadWrite, KindUser)
	r.write(t, 1, 0x10, 0, 111)
	if got := r.read(t, 2, 0x11, 0); got != 111 {
		t.Fatalf("alias read = %d", got)
	}
	r.write(t, 2, 0x11, 1, 222)
	if got := r.read(t, 1, 0x10, 1); got != 222 {
		t.Fatalf("alias read back = %d", got)
	}
	r.checkOracle(t)
	if r.p.Stats().ConsistencyFaults == 0 {
		t.Error("unaligned sharing produced no consistency faults")
	}
}

func TestEagerRemoveCleansCache(t *testing.T) {
	r := newRig(t, policy.ConfigA().Features)
	f, _ := r.p.AllocFrame(arch.NoCachePage)
	r.p.Enter(1, 0x10, f, arch.ProtReadWrite, KindUser)
	r.write(t, 1, 0x10, 0, 5)
	if !r.m.DCache.DirtyInFrame(f) {
		t.Fatal("write did not dirty the cache")
	}
	before := r.p.Stats().DFlushPages
	r.p.Remove(1, 0x10)
	if r.m.DCache.DirtyInFrame(f) {
		t.Error("eager Remove left dirty data cached")
	}
	if r.p.Stats().DFlushPages != before+1 {
		t.Errorf("eager Remove flushed %d times", r.p.Stats().DFlushPages-before)
	}
	if r.m.Mem.ReadWord(r.m.Geom.FrameBase(f)) != 5 {
		t.Error("flush lost the data")
	}
	st := r.p.PageState(f)
	if st.CacheDirty || st.Mapped != 0 {
		t.Errorf("state not cleaned: %v", st)
	}
}

func TestLazyRemoveKeepsState(t *testing.T) {
	r := newRig(t, lazyFeatures())
	f, _ := r.p.AllocFrame(arch.NoCachePage)
	r.p.Enter(1, 0x10, f, arch.ProtReadWrite, KindUser)
	r.write(t, 1, 0x10, 0, 5)
	before := r.p.Stats()
	r.p.Remove(1, 0x10)
	after := r.p.Stats()
	if after.DFlushPages != before.DFlushPages || after.DPurgePages != before.DPurgePages {
		t.Error("lazy Remove performed cache operations")
	}
	st := r.p.PageState(f)
	if !st.CacheDirty {
		t.Error("lazy Remove dropped the dirty state")
	}
	// An aligned re-mapping finds the data still cached and pays nothing.
	r.p.Enter(1, 0x10+64, f, arch.ProtReadWrite, KindUser)
	if got := r.read(t, 1, 0x10+64, 0); got != 5 {
		t.Fatalf("aligned reuse read = %d", got)
	}
	final := r.p.Stats()
	if final.DFlushPages != before.DFlushPages || final.DPurgePages != before.DPurgePages {
		t.Error("aligned reuse paid cache operations")
	}
	r.checkOracle(t)
}

func TestUnalignedReuseIsManaged(t *testing.T) {
	r := newRig(t, lazyFeatures())
	f, _ := r.p.AllocFrame(arch.NoCachePage)
	r.p.Enter(1, 0x10, f, arch.ProtReadWrite, KindUser)
	r.write(t, 1, 0x10, 0, 7)
	r.p.Remove(1, 0x10)
	// Unaligned reuse: dirty data must be flushed before the read
	// fetches from memory.
	r.p.Enter(1, 0x11, f, arch.ProtReadWrite, KindUser)
	if got := r.read(t, 1, 0x11, 0); got != 7 {
		t.Fatalf("unaligned reuse read = %d", got)
	}
	if r.p.Stats().DFlushPages == 0 {
		t.Error("unaligned reuse should flush the dirty page")
	}
	r.checkOracle(t)
}

func TestZeroPageZeroesThroughCache(t *testing.T) {
	for _, alignedPrep := range []bool{false, true} {
		t.Run(fmt.Sprintf("aligned=%t", alignedPrep), func(t *testing.T) {
			feat := lazyFeatures()
			feat.AlignedPrepare = alignedPrep
			r := newRig(t, feat)
			f, _ := r.p.AllocFrame(arch.NoCachePage)
			// Dirty the frame through a mapping, then recycle it.
			r.p.Enter(1, 0x10, f, arch.ProtReadWrite, KindUser)
			r.write(t, 1, 0x10, 3, 999)
			r.p.Remove(1, 0x10)

			if err := r.p.ZeroPage(f, 0x25); err != nil {
				t.Fatal(err)
			}
			r.p.Enter(1, 0x25, f, arch.ProtReadWrite, KindUser)
			for w := uint64(0); w < 8; w++ {
				if got := r.read(t, 1, 0x25, w*63); got != 0 {
					t.Fatalf("word %d = %d after zero-fill", w, got)
				}
			}
			r.checkOracle(t)
			if r.p.Stats().ZeroFills != 1 {
				t.Errorf("ZeroFills = %d", r.p.Stats().ZeroFills)
			}
		})
	}
}

func TestAlignedPrepareAvoidsFlush(t *testing.T) {
	run := func(alignedPrep bool) Stats {
		feat := lazyFeatures()
		feat.AlignedPrepare = alignedPrep
		r := newRig(t, feat)
		for i := 0; i < 16; i++ {
			f, _ := r.p.AllocFrame(arch.NoCachePage)
			// Stride 3 so the first-fit cursor (stride 1) cannot
			// coincidentally align with the destination.
			vpn := arch.VPN(0x100 + 3*i)
			if err := r.p.ZeroPage(f, vpn); err != nil {
				t.Fatal(err)
			}
			r.p.Enter(1, vpn, f, arch.ProtReadWrite, KindUser)
			r.read(t, 1, vpn, 0)
			r.checkOracle(t)
		}
		return r.p.Stats()
	}
	with := run(true)
	without := run(false)
	if with.DFlushPages >= without.DFlushPages {
		t.Errorf("aligned prepare flushes (%d) not below unaligned (%d)",
			with.DFlushPages, without.DFlushPages)
	}
	if with.DFlushPages != 0 {
		t.Errorf("fully aligned preparation still flushed %d times", with.DFlushPages)
	}
}

func TestCopyPageCopies(t *testing.T) {
	r := newRig(t, lazyFeatures())
	src, _ := r.p.AllocFrame(arch.NoCachePage)
	dst, _ := r.p.AllocFrame(arch.NoCachePage)
	r.p.Enter(1, 0x10, src, arch.ProtReadWrite, KindUser)
	for w := uint64(0); w < 4; w++ {
		r.write(t, 1, 0x10, w*100, 1000+w)
	}
	if err := r.p.CopyPage(src, dst, 0x30); err != nil {
		t.Fatal(err)
	}
	r.p.Enter(1, 0x30, dst, arch.ProtReadWrite, KindUser)
	for w := uint64(0); w < 4; w++ {
		if got := r.read(t, 1, 0x30, w*100); got != 1000+w {
			t.Fatalf("copied word %d = %d", w, got)
		}
	}
	// The source is intact.
	if got := r.read(t, 1, 0x10, 0); got != 1000 {
		t.Fatalf("source corrupted: %d", got)
	}
	r.checkOracle(t)
	if err := r.p.CopyPage(src, src, 0x40); err == nil {
		t.Error("self-copy accepted")
	}
}

func TestCopyToTextFlushesAndPurges(t *testing.T) {
	r := newRig(t, lazyFeatures())
	src, _ := r.p.AllocFrame(arch.NoCachePage)
	dst, _ := r.p.AllocFrame(arch.NoCachePage)
	r.p.Enter(1, 0x10, src, arch.ProtReadWrite, KindUser)
	r.write(t, 1, 0x10, 0, 0xC0DE)

	textVPN := arch.VPN(0x400)
	if err := r.p.CopyToText(src, dst, textVPN); err != nil {
		t.Fatal(err)
	}
	if r.p.Stats().DToICopies != 1 {
		t.Errorf("DToICopies = %d", r.p.Stats().DToICopies)
	}
	if r.m.DCache.DirtyInFrame(dst) {
		t.Error("text frame left dirty in the data cache")
	}
	// The instruction stream must see the copied data.
	r.p.Enter(1, textVPN, dst, arch.ProtRead, KindText)
	if err := r.p.Access(1, textVPN, machine.AccessExecute, true); err != nil {
		t.Fatal(err)
	}
	v, err := r.m.Fetch(1, r.m.Geom.PageBase(textVPN))
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xC0DE {
		t.Fatalf("fetched %#x", v)
	}
	r.checkOracle(t)
}

func TestTextReuseRequiresIPurge(t *testing.T) {
	r := newRig(t, lazyFeatures())
	src, _ := r.p.AllocFrame(arch.NoCachePage)
	dst, _ := r.p.AllocFrame(arch.NoCachePage)
	r.p.Enter(1, 0x10, src, arch.ProtReadWrite, KindUser)
	r.write(t, 1, 0x10, 0, 0xAAAA)

	textVPN := arch.VPN(0x400)
	if err := r.p.CopyToText(src, dst, textVPN); err != nil {
		t.Fatal(err)
	}
	r.p.Enter(1, textVPN, dst, arch.ProtRead, KindText)
	if err := r.p.Access(1, textVPN, machine.AccessExecute, true); err != nil {
		t.Fatal(err)
	}
	if _, err := r.m.Fetch(1, r.m.Geom.PageBase(textVPN)); err != nil {
		t.Fatal(err)
	}
	r.p.Remove(1, textVPN)

	// New text content into the same frame at the same I-cache color:
	// the stale instructions must be purged.
	r.write(t, 1, 0x10, 0, 0xBBBB)
	before := r.p.Stats().IPurgePages
	if err := r.p.CopyToText(src, dst, textVPN); err != nil {
		t.Fatal(err)
	}
	if r.p.Stats().IPurgePages != before+1 {
		t.Errorf("text reuse purged I-cache %d times, want 1", r.p.Stats().IPurgePages-before)
	}
	r.p.Enter(1, textVPN, dst, arch.ProtRead, KindText)
	if err := r.p.Access(1, textVPN, machine.AccessExecute, true); err != nil {
		t.Fatal(err)
	}
	v, err := r.m.Fetch(1, r.m.Geom.PageBase(textVPN))
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xBBBB {
		t.Fatalf("fetched stale instructions: %#x", v)
	}
	r.checkOracle(t)
}

func TestDMAWriteThenReadIsManaged(t *testing.T) {
	r := newRig(t, lazyFeatures())
	f, _ := r.p.AllocFrame(arch.NoCachePage)
	r.p.Enter(1, 0x10, f, arch.ProtReadWrite, KindUser)
	r.write(t, 1, 0x10, 0, 1) // dirty cached data
	pa := r.m.Geom.FrameBase(f)

	r.p.PrepareDMAWrite(f)
	r.m.DMAWrite(pa, []uint64{0xD111, 0xD222})
	// The CPU must see the device's data, not the stale cached copy.
	if got := r.read(t, 1, 0x10, 0); got != 0xD111 {
		t.Fatalf("read after DMA-write = %#x", got)
	}
	if got := r.read(t, 1, 0x10, 1); got != 0xD222 {
		t.Fatalf("read after DMA-write = %#x", got)
	}
	r.checkOracle(t)

	// Now dirty it again and let the device read it back.
	const fresh = 0xF4E54
	r.write(t, 1, 0x10, 0, fresh)
	r.p.PrepareDMARead(f)
	out := r.m.DMARead(pa, 1)
	if out[0] != fresh {
		t.Fatalf("device read %#x", out[0])
	}
	r.checkOracle(t)
}

func TestModifyFaultAfterDMARead(t *testing.T) {
	// The subtle sequence the modified-bit machinery exists for:
	// write (cache_dirty set) → DMA-read (flush clears cache_dirty and
	// the modified bit) → write again through the still-RW mapping
	// (modify fault re-establishes cache_dirty) → unaligned read
	// (must flush the re-dirtied page).
	r := newRig(t, lazyFeatures())
	f, _ := r.p.AllocFrame(arch.NoCachePage)
	r.p.Enter(1, 0x10, f, arch.ProtReadWrite, KindUser)
	r.write(t, 1, 0x10, 0, 1)

	r.p.PrepareDMARead(f)
	r.m.DMARead(r.m.Geom.FrameBase(f), 1)

	mods := r.p.Stats().ModifyFaults
	r.write(t, 1, 0x10, 0, 2) // must take a modify fault
	if r.p.Stats().ModifyFaults != mods+1 {
		t.Fatalf("second write took %d modify faults, want 1", r.p.Stats().ModifyFaults-mods)
	}
	if !r.p.PageState(f).CacheDirty {
		t.Fatal("cache_dirty not re-established by the modify fault")
	}

	// The unaligned alias must now observe the flush.
	r.p.Enter(2, 0x11, f, arch.ProtReadWrite, KindUser)
	if got := r.read(t, 2, 0x11, 0); got != 2 {
		t.Fatalf("unaligned read after modify fault = %d", got)
	}
	r.checkOracle(t)
}
