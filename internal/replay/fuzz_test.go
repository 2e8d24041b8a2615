package replay

import (
	"encoding/json"
	"testing"

	"vcache/internal/machine"
	"vcache/internal/trace"
)

// FuzzReplaySpec feeds arbitrary bytes through the /replay and
// vcachesim -replay path short of simulation: JSON decoding into a
// trace.Export, then Parse and Spec. Any input must yield an error or a
// replayable spec, never a panic; an accepted spec's machine must lie
// within the size limits, its scale must be valid whenever the workload
// has a Setup for it to size, and its trace ring must hold exactly the
// events the export carries.
func FuzzReplaySpec(f *testing.F) {
	ops := `"events":[{"seq":1,"cycles":0,"kind":"op","frame":0,"note":"sync"}]`
	for _, origin := range []string{
		`{"workload":"kernel-build","config":"F","scale":"custom","factor":0.1,"cpus":2,"frames":2048}`,
		`{"workload":"x","config":"HYB","cpus":64,"frames":1048576}`,
		`{"workload":"x","config":"F","cpus":65}`,
		`{"workload":"x","config":"F","cpus":100000}`,
		`{"workload":"x","config":"F","cpus":-1}`,
		`{"workload":"x","config":"F","frames":1048577}`,
		`{"workload":"x","config":"F","frames":100000000}`,
		`{"workload":"x","config":"F","frames":-4}`,
		`{"workload":"x","config":"ZZZ"}`,
		`{"workload":"kernel-build","config":"F","scale":"custom","factor":-1}`,
		`{"workload":"kernel-build","config":"F","scale":"custom","factor":0}`,
		`{"workload":"kernel-build","config":"F","scale":"custom","factor":1e300}`,
		`{"workload":"kernel-build","config":"F","factor":0.1,"timing":{"line_purge_hit":1}}`,
	} {
		f.Add([]byte(`{"origin":` + origin + `,"retained":1,` + ops + `}`))
	}
	f.Add([]byte(`{"retained":1,` + ops + `}`))
	for _, retained := range []string{"1", "100000000000", "0", "-3", "2"} {
		f.Add([]byte(`{"origin":{"workload":"x","config":"F"},"retained":` + retained + `,` + ops + `}`))
	}
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var ex trace.Export
		if err := json.Unmarshal(data, &ex); err != nil {
			return
		}
		pr, err := Parse(ex)
		if err != nil {
			return
		}
		spec, err := pr.Spec()
		if err != nil {
			return
		}
		mc := spec.Kernel.Machine
		// CPUs 0 is the default single-CPU machine, as in machine.New.
		if mc.CPUs < 0 || mc.CPUs > machine.MaxCPUs || mc.Frames < 0 || mc.Frames > machine.MaxFrames {
			t.Fatalf("Spec accepted a machine of %d CPUs, %d frames\ninput: %s", mc.CPUs, mc.Frames, data)
		}
		if spec.Workload.Setup != nil {
			if err := spec.Scale.Validate(); err != nil {
				t.Fatalf("Spec accepted an invalid scale: %v\ninput: %s", err, data)
			}
		}
		if spec.TraceN != len(ex.Events) {
			t.Fatalf("Spec accepted a trace ring of %d for %d events\ninput: %s", spec.TraceN, len(ex.Events), data)
		}
	})
}
