package harness

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"vcache/internal/kernel"
	"vcache/internal/policy"
)

// poolTestSpec is a small real run for the build-singleflight tests:
// the workload package cannot be imported here (cycle), so the spec
// carries its own timed phase over a freshly spawned process.
func poolTestSpec() Spec {
	return Spec{
		Workload: Workload{
			Name: "pool-singleflight",
			Run: func(k *kernel.Kernel, s Scale) error {
				p, err := k.Spawn(nil, 0, 8)
				if err != nil {
					return err
				}
				for i := 0; i < 64; i++ {
					if err := k.TouchHeap(p, uint64(i%8), 4); err != nil {
						return err
					}
				}
				return nil
			},
		},
		Config: policy.New(),
		Scale:  Scale{Name: "test", Factor: 1},
	}
}

// testSnapshot boots one minimal kernel and freezes it — a real image,
// so Bytes accounting is exercised with real geometry.
func testSnapshot(t *testing.T) *kernel.Snapshot {
	t.Helper()
	k, err := kernel.New(kernel.DefaultConfig(policy.New()))
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	return k.Snapshot()
}

// TestSnapshotPoolLRU walks the pool across its eviction boundary and
// checks entry count, byte accounting, LRU order, and the hit/miss/
// eviction counters — the snapshot-pool mirror of the service's
// result-cache eviction test.
func TestSnapshotPoolLRU(t *testing.T) {
	snap := testSnapshot(t)
	per := snap.Bytes()
	if per <= 0 {
		t.Fatalf("snapshot accounts %d bytes, want > 0", per)
	}
	p := NewSnapshotPool(2)
	p.put("a", snap)
	p.put("b", snap)
	if s := p.Stats(); s.Entries != 2 || s.Bytes != 2*per || s.Evictions != 0 {
		t.Fatalf("before eviction: %+v", s)
	}

	// Third insert crosses the capacity boundary: "a" (LRU) goes.
	p.put("c", snap)
	if s := p.Stats(); s.Entries != 2 || s.Evictions != 1 || s.Bytes != 2*per {
		t.Fatalf("after first eviction: %+v", s)
	}
	if p.get("a") != nil {
		t.Fatal("evicted image still retrievable")
	}

	// Touch "b" so it is MRU, then insert again: "c" must go, not "b".
	if p.get("b") == nil {
		t.Fatal("image b missing before second eviction")
	}
	p.put("d", snap)
	if p.get("c") != nil {
		t.Fatal("LRU order ignored: c survived while recently-used b should")
	}
	if p.get("b") == nil {
		t.Fatal("recently-used image b was evicted")
	}
	s := p.Stats()
	if s.Entries != 2 || s.Evictions != 2 || s.Bytes != 2*per {
		t.Fatalf("after second eviction: %+v", s)
	}
	if s.Hits != 2 || s.Misses != 2 {
		t.Fatalf("counters = %d hits / %d misses, want 2/2", s.Hits, s.Misses)
	}

	// An in-place replace adjusts by the size delta (zero here) and must
	// not evict or double-count.
	p.put("b", snap)
	if s := p.Stats(); s.Entries != 2 || s.Evictions != 2 || s.Bytes != 2*per {
		t.Fatalf("after in-place replace: %+v", s)
	}
}

// TestSnapshotPoolBuildSingleflight: concurrent misses on one
// SnapshotKey pay exactly one cold boot — the first misser becomes the
// builder, every other executor waits on its build and forks the same
// image instead of racing a duplicate boot+setup into put (the
// snapshot-pool dogpile).
func TestSnapshotPoolBuildSingleflight(t *testing.T) {
	s := poolTestSpec()
	pool := NewSnapshotPool(4)
	const n = 8
	results := make([]Result, n)
	phases := make([]Phases, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			r, _, ph, err := Exec(context.Background(), s, pool)
			if err != nil {
				t.Errorf("run %d: %v", i, err)
				return
			}
			results[i] = r
			phases[i] = ph
		}()
	}
	close(start)
	wg.Wait()
	st := pool.Stats()
	if st.Builds != 1 {
		t.Fatalf("%d concurrent runs built %d cold images, want exactly 1 (stats %+v)", n, st.Builds, st)
	}
	if st.Entries != 1 {
		t.Fatalf("pool holds %d entries, want 1", st.Entries)
	}
	if st.Hits+st.Misses != n {
		t.Fatalf("hits+misses = %d, want %d", st.Hits+st.Misses, n)
	}
	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("run %d result diverges from run 0", i)
		}
	}
	// At most one run — the builder — paid Boot+Setup; waiters and
	// late-coming hits forked the shared image.
	booted := 0
	for _, ph := range phases {
		if ph.Boot > 0 {
			booted++
		}
	}
	if booted > 1 {
		t.Fatalf("%d runs report a Boot phase, want at most 1 (the builder)", booted)
	}
}

// TestSnapshotPoolBuilderFailureHandoff: a waiter that observes its
// builder fail must not inherit the failure (the builder's context may
// simply have been cancelled) — it re-checks the pool and takes over
// the build itself.
func TestSnapshotPoolBuilderFailureHandoff(t *testing.T) {
	s := poolTestSpec()
	pool := NewSnapshotPool(4)
	key := s.SnapshotKey()
	b, owner := pool.join(key)
	if !owner {
		t.Fatal("first join is not the owner")
	}
	done := make(chan error, 1)
	go func() {
		_, _, _, err := Exec(context.Background(), s, pool)
		done <- err
	}()
	// Give the executor time to miss and join as a waiter, then settle
	// the held build with a failure. (If the executor has not joined yet
	// it simply becomes the builder directly — the same end state.)
	time.Sleep(50 * time.Millisecond)
	pool.finish(key, b, nil, context.Canceled)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run inherited the builder's failure: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not settle after the builder failed")
	}
	if st := pool.Stats(); st.Entries != 1 {
		t.Fatalf("pool holds %d entries after the handoff, want 1", st.Entries)
	}
}

// TestSnapshotPoolDisabled pins the disabled form: a non-positive
// capacity yields a nil pool, which is a valid executor argument (cold
// path) and reports zero stats without panicking.
func TestSnapshotPoolDisabled(t *testing.T) {
	for _, capacity := range []int{0, -1, -512} {
		if p := NewSnapshotPool(capacity); p != nil {
			t.Fatalf("NewSnapshotPool(%d) = %v, want nil (disabled)", capacity, p)
		}
	}
	var p *SnapshotPool
	if s := p.Stats(); s != (SnapshotPoolStats{}) {
		t.Fatalf("nil pool stats = %+v, want zeros", s)
	}
}
