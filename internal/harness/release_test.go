package harness_test

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"vcache/internal/harness"
	"vcache/internal/policy"
	"vcache/internal/workload"
)

// TestConcurrentWarmRunsRecyclePages: goroutines running warm forks of
// one pooled image at once, each run handing its pages to the page pool
// as it finishes and drawing the next run's pages from it, all produce
// the cold run's Result exactly, with no stale transfer. A page recycled
// while another run could still read it, or not cleared or copied over
// before reuse, would show up as a differing Result or a violation.
func TestConcurrentWarmRunsRecyclePages(t *testing.T) {
	const goroutines, runs = 4, 5
	cfg, err := policy.ByLabel("F")
	if err != nil {
		t.Fatal(err)
	}
	s := harness.Spec{Workload: workload.KernelBuild(), Config: cfg, Scale: harness.Scale{Name: "test", Factor: 0.2}}
	cold := s
	cold.DisableSnapshots = true
	want, _, _, err := harness.Exec(context.Background(), cold, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want.OracleChecks == 0 {
		t.Fatal("the reference run checked nothing; the oracle is off")
	}
	pool := harness.NewSnapshotPool(1)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range runs {
				got, _, _, err := harness.Exec(context.Background(), s, pool)
				if err != nil {
					t.Errorf("goroutine %d run %d: %v", g, i, err)
					return
				}
				if got.OracleViolations != 0 {
					t.Errorf("goroutine %d run %d: %d oracle violations", g, i, got.OracleViolations)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("goroutine %d run %d: warm Result differs from the cold run", g, i)
				}
			}
		}()
	}
	wg.Wait()
	if st := pool.Stats(); st.Builds != 1 || st.Hits+st.Misses != goroutines*runs {
		t.Errorf("snapshot pool stats %+v, want one build serving %d runs", st, goroutines*runs)
	}
}
