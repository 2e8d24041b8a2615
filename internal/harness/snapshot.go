package harness

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"vcache/internal/kernel"
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

// SnapshotPoolStats is an atomic view of the pool's counters.
type SnapshotPoolStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	// Builds counts cold image builds actually started: with the per-key
	// build singleflight, N concurrent misses on one key cost one build,
	// so under contention Builds stays well below Misses.
	Builds  uint64
	Entries int
	Bytes   int64
}

type snapshotEntry struct {
	key   string
	snap  *kernel.Snapshot
	bytes int64
}

// SnapshotPool is an LRU cache of frozen machine images, keyed by
// SnapshotKey. It is safe for concurrent use: lookups and insertions are
// serialized, while forking from a retrieved (frozen) snapshot needs no
// lock at all — that is the point of freezing.
type SnapshotPool struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List               // front = most recently used
	byKey map[string]*list.Element // -> *snapshotEntry

	// building is the per-key build singleflight: the first executor to
	// miss on a key becomes its builder; executors missing while the
	// build is in flight wait on it instead of each paying a full cold
	// boot + setup (the snapshot-pool dogpile).
	building map[string]*snapshotBuild

	hits      uint64
	misses    uint64
	evictions uint64
	builds    uint64
	bytes     int64
}

// snapshotBuild is one in-flight cold build. snap and err are written
// exactly once, before done is closed; waiters block on done first, so
// the close is the publication barrier.
type snapshotBuild struct {
	done chan struct{}
	snap *kernel.Snapshot
	err  error
}

// NewSnapshotPool returns a pool holding up to capacity images; a
// capacity <= 0 returns nil (pooling disabled — a nil pool is valid and
// makes every executor take the cold path).
func NewSnapshotPool(capacity int) *SnapshotPool {
	if capacity <= 0 {
		return nil
	}
	return &SnapshotPool{
		cap:      capacity,
		ll:       list.New(),
		byKey:    make(map[string]*list.Element),
		building: make(map[string]*snapshotBuild),
	}
}

// get returns the pooled image for key, counting a hit or miss.
func (p *SnapshotPool) get(key string) *kernel.Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	if el, ok := p.byKey[key]; ok {
		p.hits++
		p.ll.MoveToFront(el)
		return el.Value.(*snapshotEntry).snap
	}
	p.misses++
	return nil
}

// peek is get without hit/miss accounting, for re-checks inside the
// build-singleflight loop (a waiter that saw its builder fail re-checks
// the pool before taking over the build; that look is bookkeeping, not
// a new demand signal).
func (p *SnapshotPool) peek(key string) *kernel.Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	if el, ok := p.byKey[key]; ok {
		p.ll.MoveToFront(el)
		return el.Value.(*snapshotEntry).snap
	}
	return nil
}

// join returns the in-flight build for key, creating one if absent.
// owner reports whether this caller created it — the owner must boot
// the image and settle the build with finish; everyone else waits on
// build.done.
func (p *SnapshotPool) join(key string) (b *snapshotBuild, owner bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if b, ok := p.building[key]; ok {
		return b, false
	}
	b = &snapshotBuild{done: make(chan struct{})}
	p.building[key] = b
	p.builds++
	return b, true
}

// finish publishes the build outcome and releases the key. A successful
// image is put in the pool before finish runs, so after the key leaves
// the building map a fresh miss on it always finds the pooled image.
func (p *SnapshotPool) finish(key string, b *snapshotBuild, snap *kernel.Snapshot, err error) {
	b.snap, b.err = snap, err
	p.mu.Lock()
	delete(p.building, key)
	p.mu.Unlock()
	close(b.done)
}

// put inserts (or replaces) the image for key, evicting least recently
// used images beyond capacity. Two executors racing on the same miss may
// both boot and put; the later insert replaces the earlier, and both
// forks remain valid — a frozen image never changes under its forks.
func (p *SnapshotPool) put(key string, snap *kernel.Snapshot) {
	bytes := snap.Bytes()
	p.mu.Lock()
	defer p.mu.Unlock()
	if el, ok := p.byKey[key]; ok {
		e := el.Value.(*snapshotEntry)
		p.bytes += bytes - e.bytes
		e.snap = snap
		e.bytes = bytes
		p.ll.MoveToFront(el)
		return
	}
	p.byKey[key] = p.ll.PushFront(&snapshotEntry{key: key, snap: snap, bytes: bytes})
	p.bytes += bytes
	for p.cap > 0 && p.ll.Len() > p.cap {
		el := p.ll.Back()
		e := el.Value.(*snapshotEntry)
		p.ll.Remove(el)
		delete(p.byKey, e.key)
		p.bytes -= e.bytes
		p.evictions++
	}
}

// Stats returns the pool counters. A nil pool reports zeros.
func (p *SnapshotPool) Stats() SnapshotPoolStats {
	if p == nil {
		return SnapshotPoolStats{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return SnapshotPoolStats{
		Hits:      p.hits,
		Misses:    p.misses,
		Evictions: p.evictions,
		Builds:    p.builds,
		Entries:   p.ll.Len(),
		Bytes:     p.bytes,
	}
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
			case <-b.done:
			case <-ctx.Done():
				return Result{}, nil, ph, fmt.Errorf("%s/%s: %w", s.Workload.Name, s.Config.Label, ctx.Err())
			}
			if b.err == nil {
				snap = b.snap
				break
			}
			snap = pool.peek(key)
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
