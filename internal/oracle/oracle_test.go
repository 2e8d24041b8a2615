package oracle

import (
	"slices"
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

// TestRangeMethodsMatchWordCalls: RecordWrites and ObserveWords over a
// range that crosses a shadow chunk are the per-word RecordWrite and
// Observe calls in word order — the same shadow, one check per word,
// and the stale words' violations (PA, Got, Want) in word order, with
// FailFast firing on the first stale word.
func TestRangeMethodsMatchWordCalls(t *testing.T) {
	const n = 24
	base := arch.PA((chunkMask + 1 - n/2) * arch.WordSize) // straddles chunks 0 and 1
	vs := make([]uint64, n)
	for k := range vs {
		vs[k] = uint64(100 + k)
	}
	got := slices.Clone(vs)
	got[7], got[8], got[19] = 1, 2, 3 // stale words in the middle of the range

	ranged, words := New(2<<chunkShift), New(2<<chunkShift)
	var first *Violation
	ranged.FailFast = func(v Violation) {
		if first == nil {
			first = &v
		}
	}
	ranged.RecordWrites(base, vs)
	ranged.ObserveWords(DeviceRead, base, got)
	for k := range vs {
		words.RecordWrite(base+arch.PA(k)*arch.WordSize, vs[k])
	}
	for k := range got {
		words.Observe(DeviceRead, base+arch.PA(k)*arch.WordSize, got[k])
	}

	if ranged.Checks() != n || words.Checks() != n {
		t.Errorf("Checks = %d (word calls %d), want %d", ranged.Checks(), words.Checks(), n)
	}
	want := []Violation{
		{DeviceRead, base + 7*arch.WordSize, 1, 107},
		{DeviceRead, base + 8*arch.WordSize, 2, 108},
		{DeviceRead, base + 19*arch.WordSize, 3, 119},
	}
	if !slices.Equal(ranged.Violations(), want) || !slices.Equal(words.Violations(), want) {
		t.Errorf("violations = %v (word calls %v), want %v", ranged.Violations(), words.Violations(), want)
	}
	if first == nil || *first != want[0] {
		t.Errorf("FailFast saw %v first, want %v", first, want[0])
	}
	for k := -1; k <= n; k++ {
		pa := base + arch.PA(k)*arch.WordSize
		if ranged.Expected(pa) != words.Expected(pa) {
			t.Errorf("shadow at %#x = %d, word calls %d", uint64(pa), ranged.Expected(pa), words.Expected(pa))
		}
	}

	// An empty range is a no-op, and a nil oracle ignores ranges.
	ranged.ObserveWords(CPURead, base, nil)
	ranged.RecordWrites(base, nil)
	if ranged.Checks() != n {
		t.Errorf("empty range counted: Checks = %d", ranged.Checks())
	}
	var none *Oracle
	none.RecordWrites(0, vs)
	none.ObserveWords(CPURead, 0, got)
	if none.Checks() != 0 || none.Violations() != nil {
		t.Error("nil oracle recorded a range")
	}
}

// TestRangeOutOfRangePanics: a range whose last word lies past the
// shadow panics like a word call at that address.
func TestRangeOutOfRangePanics(t *testing.T) {
	for name, call := range map[string]func(*Oracle){
		"RecordWrites": func(o *Oracle) { o.RecordWrites(0, make([]uint64, 9)) },
		"ObserveWords": func(o *Oracle) { o.ObserveWords(CPURead, 0, make([]uint64, 9)) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r == nil {
					t.Error("no panic")
				}
			}()
			call(New(8))
		})
	}
}

// TestReleaseLeavesClonesIntact: Clone copies every chunk, so releasing
// the original — and reusing its chunks as another oracle's zeroed
// shadow — never changes a clone, and the released oracle panics
// instead of checking against a recycled chunk.
func TestReleaseLeavesClonesIntact(t *testing.T) {
	const words = 4 << chunkShift
	o := New(words)
	for i := 0; i < words; i += 3 {
		o.RecordWrite(arch.PA(i*arch.WordSize), uint64(i)+1)
	}
	c := o.Clone()
	o.Release()
	for range 8 {
		n := New(words)
		for i := 0; i < words; i += chunkMask + 1 {
			n.RecordWrite(arch.PA(i*arch.WordSize), 0)
		}
	}
	for i := 0; i < words; i++ {
		want := uint64(0)
		if i%3 == 0 {
			want = uint64(i) + 1
		}
		if got := c.Expected(arch.PA(i * arch.WordSize)); got != want {
			t.Fatalf("clone word %d = %d after the original's release, want %d", i, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Observe after Release did not panic")
		}
	}()
	o.Observe(CPURead, 0, 1)
}
