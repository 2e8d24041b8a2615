package oracle

import (
	"strings"
	"testing"

	"vcache/internal/arch"
)

func TestObserveFreshAndStale(t *testing.T) {
	o := New(64)
	o.RecordWrite(8, 42)
	o.Observe(CPURead, 8, 42)
	if len(o.Violations()) != 0 {
		t.Fatal("fresh read flagged")
	}
	o.Observe(CPURead, 8, 41)
	v := o.Violations()
	if len(v) != 1 {
		t.Fatalf("stale read produced %d violations", len(v))
	}
	if v[0].Got != 41 || v[0].Want != 42 || v[0].Consumer != CPURead {
		t.Errorf("violation = %+v", v[0])
	}
	if o.Checks() != 2 {
		t.Errorf("Checks = %d", o.Checks())
	}
}

func TestConsumersTracked(t *testing.T) {
	o := New(64)
	o.RecordWrite(0, 1)
	o.Observe(CPUFetch, 0, 0)
	o.Observe(DeviceRead, 0, 0)
	v := o.Violations()
	if len(v) != 2 || v[0].Consumer != CPUFetch || v[1].Consumer != DeviceRead {
		t.Fatalf("violations = %v", v)
	}
	// Strings are informative.
	if v[0].String() == "" || CPUFetch.String() != "cpu-fetch" {
		t.Error("bad formatting")
	}
}

func TestLatestWriteWins(t *testing.T) {
	o := New(64)
	o.RecordWrite(16, 1)
	o.RecordWrite(16, 2) // e.g. a DMA overwrote a CPU write
	o.Observe(CPURead, 16, 1)
	if len(o.Violations()) != 1 {
		t.Error("old value accepted after newer write")
	}
	o.Observe(CPURead, 16, 2)
	if len(o.Violations()) != 1 {
		t.Error("current value rejected")
	}
	if o.Expected(16) != 2 {
		t.Errorf("Expected = %d", o.Expected(16))
	}
}

func TestFailFast(t *testing.T) {
	o := New(8)
	var got *Violation
	o.FailFast = func(v Violation) { got = &v }
	o.RecordWrite(0, 5)
	o.Observe(CPURead, 0, 6)
	if got == nil || got.Want != 5 {
		t.Error("FailFast not invoked")
	}
}

func TestNilOracleIsSafe(t *testing.T) {
	var o *Oracle
	o.RecordWrite(0, 1)
	o.Observe(CPURead, 0, 2)
	if o.Violations() != nil || o.Checks() != 0 || o.Expected(0) != 0 {
		t.Error("nil oracle misbehaved")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	o := New(1)
	defer func() {
		r := recover()
		if err, ok := r.(error); !ok || !strings.Contains(err.Error(), "PA 0x40 out of range") {
			t.Errorf("panic value %v, want an out-of-range error", r)
		}
	}()
	o.RecordWrite(arch.PA(64), 1)
}

// TestShadowChunksAllocatedOnWrite: an unwritten word reads as zero, a
// write allocates only its own chunk, and a clone copies only written
// chunks and shares none of them with the original.
func TestShadowChunksAllocatedOnWrite(t *testing.T) {
	const chunks = 4
	o := New(chunks << chunkShift)
	if v := o.Expected(arch.PA(3 << chunkShift * arch.WordSize)); v != 0 {
		t.Fatalf("unwritten word reads %d, want 0", v)
	}
	pa := arch.PA((2<<chunkShift + 7) * arch.WordSize)
	o.RecordWrite(pa, 9)
	written := func(o *Oracle) (n int) {
		for _, ch := range o.chunks {
			if ch != nil {
				n++
			}
		}
		return n
	}
	if n := written(o); n != 1 {
		t.Fatalf("%d chunks allocated after one write, want 1", n)
	}

	c := o.Clone()
	if n := written(c); n != 1 || c.Expected(pa) != 9 {
		t.Fatalf("clone has %d chunks and reads %d, want 1 and 9", n, c.Expected(pa))
	}
	c.RecordWrite(pa, 10)
	c.RecordWrite(0, 11)
	if o.Expected(pa) != 9 || o.Expected(0) != 0 || written(o) != 1 {
		t.Error("writes to the clone reached the original")
	}
	c.Observe(CPURead, pa, 10)
	c.Observe(CPURead, 0, 11)
	if len(c.Violations()) != 0 {
		t.Errorf("clone flagged its own writes: %v", c.Violations())
	}
}
