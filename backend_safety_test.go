// Backend fast-path safety: every consistency backend runs the bulk
// fast paths, so each must produce the same observations on them as on
// the word-at-a-time reference pipeline. A new backend kind added
// without a reachable configuration, or whose runs diverge, fails here.
package vcache

import (
	"reflect"
	"testing"

	"vcache/internal/harness"
	"vcache/internal/policy"
	"vcache/internal/workload"
)

// backendConfig finds the policy configuration that runs under kind.
func backendConfig(t *testing.T, kind policy.Backend) policy.Config {
	t.Helper()
	for _, cfg := range policy.All() {
		if cfg.Features.Backend == kind {
			return cfg
		}
	}
	t.Fatalf("no policy configuration runs backend %v — every backend must be reachable from a label", kind)
	return policy.Config{}
}

// TestEveryBackendFastPathSafe: fast vs reference pipeline, with the
// oracle off and on, the Results of every backend must be deeply equal
// — every cycle, every counter, every oracle check.
func TestEveryBackendFastPathSafe(t *testing.T) {
	for kind := range policy.NumBackends {
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			cfg := backendConfig(t, kind)
			for _, w := range []harness.Workload{workload.Stress(7, 300), workload.KernelBuild()} {
				for _, oracle := range []bool{false, true} {
					s := harness.Spec{Workload: w, Config: cfg, Scale: workload.Small()}
					fast := runWith(t, s, oracle, true)
					slow := runWith(t, s, oracle, false)
					if !reflect.DeepEqual(fast, slow) {
						t.Errorf("%s oracle=%t: backend %v diverges between bulk and reference paths\nfast: %+v\nslow: %+v",
							s.Label(), oracle, kind, fast, slow)
					}
				}
			}
		})
	}
}
