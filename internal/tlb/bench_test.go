package tlb

import (
	"testing"

	"vcache/internal/arch"
	"vcache/internal/sim"
)

// sink keeps the benchmarked results live.
var sink arch.PFN

// BenchmarkLookup times one translation on a 96-entry TLB: "last" hits
// the one-entry last-translation cache, "index" alternates two resident
// pages so every hit goes through the open-addressed index, and "miss"
// cycles through more pages than the TLB holds, so every lookup walks
// and evicts. Run with
//
//	go test -run '^$' -bench . ./internal/tlb
func BenchmarkLookup(b *testing.B) {
	w := &versionWalker{version: make(map[refKey]arch.PFN)}
	b.Run("last", func(b *testing.B) {
		tl := New(96, sim.NewClock(sim.HP720Timing()))
		tl.Lookup(1, 1, w)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e, _ := tl.Lookup(1, 1, w)
			sink += e.PFN
		}
	})
	b.Run("index", func(b *testing.B) {
		tl := New(96, sim.NewClock(sim.HP720Timing()))
		vpns := [2]arch.VPN{1, 2}
		tl.Lookup(1, vpns[0], w)
		tl.Lookup(1, vpns[1], w)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e, _ := tl.Lookup(1, vpns[i&1], w)
			sink += e.PFN
		}
	})
	b.Run("miss", func(b *testing.B) {
		tl := New(96, sim.NewClock(sim.HP720Timing()))
		var vpns []arch.VPN
		for vpn := arch.VPN(1); len(vpns) < 128; vpn++ {
			if _, ok := w.Walk(1, vpn); ok {
				vpns = append(vpns, vpn)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e, _ := tl.Lookup(1, vpns[i%len(vpns)], w)
			sink += e.PFN
		}
	})
}
