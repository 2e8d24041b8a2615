// Identity proof for the snapshot/fork protocol: a run forked from a
// pooled post-setup machine image must produce a Result identical —
// field for field, including every cycle and every counter — to the
// same run cold-booted from scratch. DisableSnapshots is the reference
// path, exactly as DisableFastPaths is for the hot-path identity tests.
package vcache

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"vcache/internal/harness"
	"vcache/internal/policy"
	"vcache/internal/workload"
)

// snapshotSpecs is the A–F × workload matrix at test scale: every
// lettered configuration crossed with every named benchmark plus the
// paging/IPC torture workload.
func snapshotSpecs() []harness.Spec {
	scale := workload.Small()
	var specs []harness.Spec
	for _, cfg := range policy.Configs() {
		for _, w := range workload.Benchmarks() {
			specs = append(specs, harness.Spec{Workload: w, Config: cfg, Scale: scale})
		}
		specs = append(specs, harness.Spec{Workload: workload.Stress(7, 300), Config: cfg, Scale: scale})
	}
	return specs
}

// runCold executes the reference path: a full cold boot.
func runCold(t *testing.T, s harness.Spec) harness.Result {
	t.Helper()
	s.DisableSnapshots = true
	r, _, _, err := harness.Exec(context.Background(), s, harness.NewSnapshotPool(1))
	if err != nil {
		t.Fatalf("%s cold: %v", s.Label(), err)
	}
	return r
}

// runWarm executes the warm path against pool, returning the result and
// phase breakdown.
func runWarm(t *testing.T, s harness.Spec, pool *harness.SnapshotPool) (harness.Result, harness.Phases) {
	t.Helper()
	r, _, ph, err := harness.Exec(context.Background(), s, pool)
	if err != nil {
		t.Fatalf("%s warm: %v", s.Label(), err)
	}
	return r, ph
}

// TestSnapshotForkIdentity: across the A–F × workload matrix, a run
// forked from a snapshot (both the first fork, taken right after the
// image is built, and a second fork from the now-pooled image) must be
// deeply equal to the cold-booted reference run.
func TestSnapshotForkIdentity(t *testing.T) {
	for _, s := range snapshotSpecs() {
		s := s
		t.Run(s.Label(), func(t *testing.T) {
			t.Parallel()
			cold := runCold(t, s)
			pool := harness.NewSnapshotPool(1)
			first, firstPh := runWarm(t, s, pool)
			if !reflect.DeepEqual(cold, first) {
				t.Errorf("first fork diverges from cold boot\ncold: %+v\nfork: %+v", cold, first)
			}
			if firstPh.Boot == 0 {
				t.Error("pool miss should have booted cold (Boot phase empty)")
			}
			second, secondPh := runWarm(t, s, pool)
			if !reflect.DeepEqual(cold, second) {
				t.Errorf("second fork diverges from cold boot\ncold: %+v\nfork: %+v", cold, second)
			}
			if secondPh.Boot != 0 || secondPh.Setup != 0 {
				t.Errorf("pool hit should not boot or set up, got %v", secondPh)
			}
			if secondPh.Restore == 0 {
				t.Error("pool hit reported no Restore phase")
			}
			st := pool.Stats()
			if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
				t.Errorf("pool stats = %+v, want 1 hit / 1 miss / 1 entry", st)
			}
			if st.Bytes <= 0 {
				t.Errorf("pool bytes = %d, want > 0", st.Bytes)
			}
		})
	}
}

// TestConcurrentForksShareSnapshot: many goroutines forking and running
// from one shared, frozen image must all reproduce the cold-boot result.
// Run under -race this also proves fork-time isolation: forks of a
// frozen image share pages read-only and privatize on write.
func TestConcurrentForksShareSnapshot(t *testing.T) {
	s := harness.Spec{Workload: workload.KernelBuild(), Config: policy.New(), Scale: workload.Small()}
	cold := runCold(t, s)
	pool := harness.NewSnapshotPool(1)
	// Prime the pool so every concurrent run below forks the same image.
	if warm, _ := runWarm(t, s, pool); !reflect.DeepEqual(cold, warm) {
		t.Fatalf("priming run diverges from cold boot")
	}
	const forks = 8
	results := make([]harness.Result, forks)
	var wg sync.WaitGroup
	for i := 0; i < forks; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, _, _, err := harness.Exec(context.Background(), s, pool)
			if err != nil {
				t.Errorf("fork %d: %v", i, err)
				return
			}
			results[i] = r
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, r := range results {
		if !reflect.DeepEqual(cold, r) {
			t.Errorf("concurrent fork %d diverges from cold boot", i)
		}
	}
	// The priming run missed; every concurrent run hit the pooled image.
	if st := pool.Stats(); st.Hits != forks || st.Misses != 1 {
		t.Errorf("pool stats = %+v, want %d hits / 1 miss", st, forks)
	}
}

// TestTraceDoesNotLeakAcrossForks: trace capture is attached per fork,
// after the fork — so a traced run records events, an untraced sibling
// from the same snapshot records nothing, and both produce the identical
// Result (the regression test for tracer serialization into snapshots).
func TestTraceDoesNotLeakAcrossForks(t *testing.T) {
	s := harness.Spec{Workload: workload.KernelBuild(), Config: policy.New(), Scale: workload.Small()}
	cold := runCold(t, s)
	pool := harness.NewSnapshotPool(1)

	traced := s
	traced.TraceN = 64
	res, rec, _, err := harness.Exec(context.Background(), traced, pool)
	if err != nil {
		t.Fatalf("traced warm run: %v", err)
	}
	if rec == nil || len(rec.Events()) == 0 {
		t.Fatal("traced warm run captured no events")
	}
	if !reflect.DeepEqual(cold, res) {
		t.Errorf("traced fork diverges from cold boot")
	}

	// An untraced sibling forked from the same image: no recorder, and
	// the identical result.
	res2, rec2, ph2, err := harness.Exec(context.Background(), s, pool)
	if err != nil {
		t.Fatalf("untraced warm run: %v", err)
	}
	if rec2 != nil {
		t.Error("untraced run returned a recorder")
	}
	if ph2.Restore == 0 {
		t.Error("untraced sibling did not fork from the pooled image")
	}
	if !reflect.DeepEqual(cold, res2) {
		t.Errorf("untraced sibling diverges from cold boot")
	}

	// A second traced fork records its own events from scratch — the
	// ring holds only this fork's history, not the earlier sibling's.
	res3, rec3, _, err := harness.Exec(context.Background(), traced, pool)
	if err != nil {
		t.Fatalf("second traced warm run: %v", err)
	}
	if !reflect.DeepEqual(cold, res3) {
		t.Errorf("second traced fork diverges from cold boot")
	}
	if rec3 == nil {
		t.Fatal("second traced run returned no recorder")
	}
	a, b := rec.Events(), rec3.Events()
	if len(a) != len(b) {
		t.Fatalf("sibling traced forks captured different event counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sibling traced forks diverge at event %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestSnapshotKeyDistinguishesConfigs: the content address must separate
// what changes machine state and ignore what does not.
func TestSnapshotKeyDistinguishesConfigs(t *testing.T) {
	base := harness.Spec{Workload: workload.KernelBuild(), Config: policy.New(), Scale: workload.Small()}
	if a, b := base.SnapshotKey(), base.SnapshotKey(); a != b {
		t.Fatal("snapshot key is not deterministic")
	}
	other := base
	other.Config = policy.Old()
	if base.SnapshotKey() == other.SnapshotKey() {
		t.Error("different policy configs share a snapshot key")
	}
	scaled := base
	scaled.Scale = workload.Full()
	if base.SnapshotKey() == scaled.SnapshotKey() {
		t.Error("different scales share a snapshot key")
	}
	wl := base
	wl.Workload = workload.AFSBench()
	if base.SnapshotKey() == wl.SnapshotKey() {
		t.Error("different workloads share a snapshot key")
	}
	traced := base
	traced.TraceN = 128
	if base.SnapshotKey() != traced.SnapshotKey() {
		t.Error("tracing changed the snapshot key; traced runs should share images")
	}
	noSnap := base
	noSnap.DisableSnapshots = true
	if base.SnapshotKey() != noSnap.SnapshotKey() {
		t.Error("DisableSnapshots changed the snapshot key")
	}
}
