package harness

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"

	"vcache/internal/kernel"
	"vcache/internal/memo"
	"vcache/internal/trace"
)

// SnapshotKey content-addresses a booted machine image the same way the
// service keys result bodies: the SHA-256 of the canonical JSON of
// everything that determines the post-setup state — the resolved kernel
// configuration (machine geometry, frame count, policy features, timing,
// fast-path switches) and the workload prefix (name plus scale factor)
// whose Setup ran before the image was taken.
//
// Deliberately NOT in the key: TraceN (tracing is pure observation,
// attached per fork) and DisableSnapshots (it selects the reference
// path, it does not change machine state).
func (s Spec) SnapshotKey() string {
	payload := struct {
		Kernel   kernel.Config `json:"kernel"`
		Workload string        `json:"workload"`
		Scale    float64       `json:"scale"`
	}{s.kernelConfig(), s.Workload.Name, s.Scale.Factor}
	b, err := json.Marshal(payload)
	if err != nil {
		// Config types are plain data; marshalling cannot fail short of
		// a programming error, which must not silently alias images.
		panic(fmt.Sprintf("harness: snapshot key: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// SnapshotPoolStats is a point-in-time view of the pool's counters: the
// image cache's hits, misses, evictions, entries and bytes, and Builds.
type SnapshotPoolStats struct {
	memo.Stats
	// Builds counts cold image builds actually started: with the per-key
	// build singleflight, N concurrent misses on one key cost one build,
	// so under contention Builds stays well below Misses.
	Builds uint64
}

// SnapshotPool is an LRU cache of frozen machine images, keyed by
// SnapshotKey, with a per-key build singleflight. It is safe for
// concurrent use: lookups and insertions are serialized, while forking
// from a retrieved (frozen) snapshot needs no lock at all — that is the
// point of freezing.
type SnapshotPool struct {
	images *memo.Cache[*kernel.Snapshot]
	// building is the per-key build singleflight: the first executor to
	// miss on a key becomes its builder; executors missing while the
	// build is in flight wait on it instead of each paying a full cold
	// boot + setup (the snapshot-pool dogpile).
	building memo.Flight[*kernel.Snapshot]
	builds   atomic.Uint64
}

// NewSnapshotPool returns a pool holding up to capacity images; a
// capacity <= 0 returns nil (pooling disabled — a nil pool is valid and
// makes every executor take the cold path).
func NewSnapshotPool(capacity int) *SnapshotPool {
	if capacity <= 0 {
		return nil
	}
	return &SnapshotPool{images: memo.NewCache(capacity, (*kernel.Snapshot).Bytes)}
}

// get returns the pooled image for key, or nil, counting a hit or miss.
func (p *SnapshotPool) get(key string) *kernel.Snapshot {
	snap, _ := p.images.Get(key)
	return snap
}

// put inserts (or replaces) the image for key. Two executors racing on
// the same miss may both boot and put; the later insert replaces the
// earlier, and both forks remain valid — a frozen image never changes
// under its forks.
func (p *SnapshotPool) put(key string, snap *kernel.Snapshot) { p.images.Put(key, snap) }

// join returns the in-flight build for key, starting one (and counting
// a build) if there is none; owner reports whether this caller must
// boot the image and settle the build with finish.
func (p *SnapshotPool) join(key string) (b *memo.Call[*kernel.Snapshot], owner bool) {
	b, owner = p.building.Join(key)
	if owner {
		p.builds.Add(1)
	}
	return b, owner
}

// finish publishes the build outcome and releases the key. A successful
// image is put in the pool before finish runs, so after the key is
// released a fresh miss on it always finds the pooled image.
func (p *SnapshotPool) finish(key string, b *memo.Call[*kernel.Snapshot], snap *kernel.Snapshot, err error) {
	p.building.Finish(key, b, snap, err)
}

// Stats returns the pool counters. A nil pool reports zeros.
func (p *SnapshotPool) Stats() SnapshotPoolStats {
	if p == nil {
		return SnapshotPoolStats{}
	}
	return SnapshotPoolStats{Stats: p.images.Stats(), Builds: p.builds.Load()}
}

// Exec performs one run: boot a fresh system, perform setup, reset every
// counter, run the timed phase, and collect the result. The returned
// recorder is non-nil only when the Spec requested tracing, and Phases
// is the run's wall-clock breakdown; on failure Phases still covers the
// phases that did execute, so an operator can see where a run died
// spending its time.
//
// Cancelling (or timing out) ctx aborts the run cooperatively, cold or
// warm: the kernel polls ctx.Err at every syscall and process-operation
// boundary, so an in-flight setup or timed phase stops within one
// operation and the error — satisfying errors.Is(err, ctx.Err()) —
// propagates out exactly like a workload failure.
//
// A nil pool (or a Spec with DisableSnapshots) cold-boots. Otherwise the
// run forks a pooled post-setup machine image (Restore phase) instead of
// booting and setting up from scratch (Boot + Setup phases). The first
// run of a (config, workload, scale) combination boots cold, snapshots
// the post-setup state, and pools it; every later run forks it in
// O(dirtied pages). Results are byte-identical either way — the fork
// protocol copies every piece of machine state the workload can observe
// — which TestSnapshotForkIdentity proves against the DisableSnapshots
// reference path.
//
// Every run, cold or warm, releases its kernel when measure returns (see
// kernel.Release), so the next run draws its pages from the page pool; a
// Workload must not keep the kernel past its Run.
func Exec(ctx context.Context, s Spec, pool *SnapshotPool) (Result, *trace.Recorder, Phases, error) {
	var ph Phases
	if err := ctx.Err(); err != nil {
		return Result{}, nil, ph, fmt.Errorf("%s/%s: %w", s.Workload.Name, s.Config.Label, err)
	}
	var k *kernel.Kernel
	if pool == nil || s.DisableSnapshots {
		var err error
		if k, err = boot(ctx, s, &ph); err != nil {
			return Result{}, nil, ph, err
		}
	} else {
		key := s.SnapshotKey()
		snap := pool.get(key)
		for snap == nil {
			b, owner := pool.join(key)
			if owner {
				cold, err := boot(ctx, s, &ph)
				if err != nil {
					pool.finish(key, b, nil, err)
					return Result{}, nil, ph, err
				}
				snap = cold.Snapshot()
				pool.put(key, snap)
				pool.finish(key, b, snap, nil)
				break
			}
			// Another executor is already booting this image: wait for it
			// instead of paying a duplicate cold boot. The builder's
			// failure is not necessarily ours — its context may simply
			// have been cancelled — so on error, re-check the pool and
			// loop; the next join makes this executor the builder, and
			// its own boot reports its own error.
			select {
			case <-b.Done():
			case <-ctx.Done():
				return Result{}, nil, ph, fmt.Errorf("%s/%s: %w", s.Workload.Name, s.Config.Label, ctx.Err())
			}
			if b.Err == nil {
				snap = b.Val
				break
			}
			// The hand-off re-check is bookkeeping, not a new demand: it
			// counts neither a hit nor a miss.
			snap, _ = pool.images.Peek(key)
		}
		start := time.Now()
		k = snap.Fork()
		ph.Restore = time.Since(start)
		k.SetInterrupt(ctx.Err)
	}
	res, rec, err := measure(s, k, &ph)
	// k is never a pooled image (those are only forked), so this is safe.
	k.Release()
	if err != nil {
		return Result{}, nil, ph, err
	}
	return res, rec, ph, nil
}
