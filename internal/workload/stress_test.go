package workload

import (
	"reflect"
	"testing"

	"vcache/internal/policy"
)

// TestStressSeedDeterminism pins the stress RNG's seeding contract:
// the seed lives in the workload value (not in process-global state),
// so two runs of the same stress-<seed> spec are DeepEqual end to end
// — the property replay closure and the fuzzer's novelty accounting
// both depend on.
func TestStressSeedDeterminism(t *testing.T) {
	run := func(seed uint64) Result {
		r, err := runOnce(Stress(seed, 400), policy.New(), Small(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(7), run(7)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed produced different results:\n%+v\nvs\n%+v", a, b)
	}
	c := run(8)
	if a.Cycles == c.Cycles && a.PM == c.PM {
		t.Error("different seeds produced identical runs; the seed is not reaching the RNG")
	}
}

// TestStressByName: "stress-<seed>" resolves through the registry to a
// workload carrying that exact seed in its name, and a garbled seed is
// rejected.
func TestStressByName(t *testing.T) {
	w, err := ByName("stress-1234")
	if err != nil || w.Name != "stress-1234" {
		t.Fatalf("ByName(stress-1234) = %v, %v", w.Name, err)
	}
	if _, err := ByName("stress-"); err == nil {
		t.Error("empty stress seed accepted")
	}
	if _, err := ByName("stress-banana"); err == nil {
		t.Error("non-numeric stress seed accepted")
	}
}
