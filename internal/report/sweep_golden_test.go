package report

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"vcache/internal/harness"
	"vcache/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the sweep golden files from this run's output")

// goldenScale keeps the golden runs fast: each sweep is a full
// harness.Plan of kernel-build simulations, just small ones.
var goldenScale = workload.Scale{Name: "golden", Factor: 0.05}

// TestSweepGoldenRendering locks the complete rendered sweep artifacts
// to golden files, at the report layer: the same determinism the harness
// promises per-run must survive sweep-driver plan construction, fan-out,
// and formatting. Run with -update after an intentional simulator or
// formatting change.
func TestSweepGoldenRendering(t *testing.T) {
	for _, tc := range []struct {
		name   string
		golden string
		run    func(ctx context.Context, r *harness.Runner, s workload.Scale) (string, error)
	}{
		{name: "memory sweep", golden: "memory_sweep.golden", run: RunMemorySweep},
		{name: "purge-cost sweep", golden: "purge_cost_sweep.golden", run: RunPurgeCostSweep},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serial, err := tc.run(context.Background(), &harness.Runner{Workers: 1}, goldenScale)
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := tc.run(context.Background(), &harness.Runner{Workers: 8}, goldenScale)
			if err != nil {
				t.Fatal(err)
			}
			// The byte-identical parallel==serial guarantee, at the
			// rendered-artifact layer.
			if serial != parallel {
				t.Fatalf("%s renders differently under fan-out:\n--- serial ---\n%s--- parallel ---\n%s",
					tc.name, serial, parallel)
			}
			path := filepath.Join("testdata", tc.golden)
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(serial), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (regenerate with `go test ./internal/report -run Golden -update`): %v", err)
			}
			if serial != string(want) {
				t.Errorf("%s drifted from its golden file:\n--- got ---\n%s--- want ---\n%s",
					tc.name, serial, want)
			}
		})
	}
}
