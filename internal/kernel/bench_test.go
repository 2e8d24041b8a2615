package kernel

import (
	"testing"

	"vcache/internal/policy"
)

// Syscall-level microbenchmarks: the read(2) page copy and a whole-page
// heap touch under configuration F, oracle off as the benchmark cells
// run, with the fast paths on and forced onto the word-at-a-time
// reference pipeline (DisableFastPaths). Run with
//
//	go test -run '^$' -bench . ./internal/kernel

// benchModes are the two sides of every benchmark here.
var benchModes = []struct {
	name string
	fast bool
}{{"fast", true}, {"reference", false}}

// benchBoot boots F with one 8-page process whose heap page 1 is
// resident.
func benchBoot(b *testing.B, fast bool) (*Kernel, *Process) {
	b.Helper()
	kc := DefaultConfig(policy.New())
	kc.Machine.WithOracle = false
	kc.Machine.DisableFastPaths = !fast
	k, err := New(kc)
	if err != nil {
		b.Fatal(err)
	}
	p, err := k.Spawn(nil, 0, 8)
	if err != nil {
		b.Fatal(err)
	}
	if err := k.TouchHeap(p, 1, 1); err != nil {
		b.Fatal(err)
	}
	return k, p
}

// BenchmarkReadFilePage times one read(2) of a buffer-cache-resident
// file page into a resident heap page: the syscall's server
// transaction, the buffer lookup and the page copy. ns/op is per page.
func BenchmarkReadFilePage(b *testing.B) {
	for _, mode := range benchModes {
		b.Run(mode.name, func(b *testing.B) {
			k, p := benchBoot(b, mode.fast)
			f, err := k.CreateFile(p, "f")
			if err != nil {
				b.Fatal(err)
			}
			if err := k.WriteFilePage(p, f, 0, 0); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := k.ReadFilePage(p, f, 0, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTouchHeap times a store to every word of a resident heap
// page. ns/op is per page.
func BenchmarkTouchHeap(b *testing.B) {
	for _, mode := range benchModes {
		b.Run(mode.name, func(b *testing.B) {
			k, p := benchBoot(b, mode.fast)
			words := int(k.Geometry().WordsPerPage())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := k.TouchHeap(p, 1, words); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
