package service

import (
	"encoding/json"
	"testing"

	"vcache/internal/machine"
)

// FuzzResolve feeds arbitrary bytes through the /run request path short
// of simulation: JSON decoding into a RunRequest, then Resolve. Any
// input must yield an error or a resolved run, never a panic, and an
// accepted run's machine must lie within the size limits.
func FuzzResolve(f *testing.F) {
	for _, s := range []string{
		`{"workload":"kernel-build","config":"F","scale":0.1}`,
		`{"workload":"afs-bench","config":"HYB","cpus":4,"frames":2048}`,
		`{"workload":"kernel-build","config":"F","cpus":64,"frames":1048576}`,
		`{"workload":"kernel-build","config":"F","cpus":65}`,
		`{"workload":"kernel-build","config":"F","cpus":100000}`,
		`{"workload":"kernel-build","config":"F","cpus":1000000}`,
		`{"workload":"kernel-build","config":"F","cpus":-1}`,
		`{"workload":"kernel-build","config":"F","frames":1048577}`,
		`{"workload":"kernel-build","config":"F","frames":100000000}`,
		`{"workload":"kernel-build","config":"F","frames":-4}`,
		`{"workload":"kernel-build","config":"F","scale":1e300}`,
		`{"workload":"kernel-build","config":"F","timing":{"line_flush_hit":0}}`,
		`null`,
		`{}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req RunRequest
		if err := json.Unmarshal(data, &req); err != nil {
			return
		}
		res, err := Resolve(req)
		if err != nil {
			return
		}
		mc := res.Spec.Kernel.Machine
		if mc.CPUs < 1 || mc.CPUs > machine.MaxCPUs || mc.Frames < 0 || mc.Frames > machine.MaxFrames {
			t.Fatalf("Resolve accepted a machine of %d CPUs, %d frames\ninput: %s", mc.CPUs, mc.Frames, data)
		}
	})
}
