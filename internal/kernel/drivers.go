package kernel

import (
	"fmt"

	"vcache/internal/arch"
)

// This file holds the kernel drivers added for record/replay and the
// CXL-PCC partial-coherence scenario: a sync(2)-style buffer flush and
// the cacheflush(2)-style explicit per-page flush/purge calls that let
// a workload manage cross-address-space visibility in software instead
// of leaning on the consistency fault machinery.

// Sync writes every dirty file buffer back to disk — the sync(2) path
// the workloads use as a barrier at the end of a phase. Workloads call
// this (not FS.Sync directly) so the operation lands in the op log and
// a replay reproduces the write-behind DMA traffic.
func (k *Kernel) Sync() error {
	k.opEnter()
	defer k.opExit()
	if err := k.interrupted(); err != nil {
		return err
	}
	if err := k.FS.Sync(); err != nil {
		return err
	}
	k.oplogf("sync", func() []any { return nil })
	return nil
}

// FlushPage is the explicit cache-flush call: the cached copy of one
// mapped page of the process is written back (if dirty) and
// invalidated. It is a syscall — the CXL-PCC scenario uses it as the
// producer-side "publish" operation that makes a write visible to
// readers in other address spaces without a consistency fault.
func (k *Kernel) FlushPage(p *Process, vpn arch.VPN) error {
	k.preempt(p)
	k.opEnter()
	defer k.opExit()
	if err := k.Syscall(p); err != nil {
		return err
	}
	if !p.Space.Mapped(vpn) {
		return fmt.Errorf("kernel: flush of unmapped vpn %#x in pid %d", uint64(vpn), p.ID)
	}
	if err := k.PM.FlushUser(p.Space.ID, vpn); err != nil {
		return err
	}
	k.oplogf("flushp pid=%d vpn=%#x", func() []any { return []any{p.ID, uint64(vpn)} })
	return nil
}

// PurgePage is the explicit cache-invalidate call: the cached copy of
// one mapped page of the process is discarded without write-back — the
// consumer-side "invalidate before read" of the CXL-PCC scenario. A
// dirty page degrades to a flush (see pmap.PurgeUser): discarding the
// only copy of dirtied data would hand the next reader a stale value.
func (k *Kernel) PurgePage(p *Process, vpn arch.VPN) error {
	k.preempt(p)
	k.opEnter()
	defer k.opExit()
	if err := k.Syscall(p); err != nil {
		return err
	}
	if !p.Space.Mapped(vpn) {
		return fmt.Errorf("kernel: purge of unmapped vpn %#x in pid %d", uint64(vpn), p.ID)
	}
	if err := k.PM.PurgeUser(p.Space.ID, vpn); err != nil {
		return err
	}
	k.oplogf("purgep pid=%d vpn=%#x", func() []any { return []any{p.ID, uint64(vpn)} })
	return nil
}
