package pmap

import (
	"cmp"
	"fmt"
	"maps"
	"math/rand/v2"
	"slices"
	"testing"

	"vcache/internal/arch"
	"vcache/internal/core"
)

type ptKey struct {
	space arch.SpaceID
	vpn   arch.VPN
}

// TestPageTableMatchesMapReference drives Enter, Remove, RemoveAll and
// Clone at random against a plain map of (space, vpn) -> frame. Keys
// span three spaces and include pages at the top of the VPN range; more
// keys live at once than one chunk holds, so the table adds chunks, its
// index grows, and removed records are reused. After every step each copy
// must translate exactly its reference's keys and list every frame's
// mappings as its reference does. RemoveAll must remove in ascending VPN
// order, which leaves each frame's last-removed page at its highest VPN.
func TestPageTableMatchesMapReference(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runPageTableDifferential(t, seed)
		})
	}
}

func runPageTableDifferential(t *testing.T, seed uint64) {
	r := newRig(t, lazyFeatures())
	rng := rand.New(rand.NewPCG(seed, 0))
	type pair struct {
		p   *Pmap
		ref map[ptKey]arch.PFN
	}
	pairs := []pair{{r.p, map[ptKey]arch.PFN{}}}
	key := func() ptKey {
		k := ptKey{arch.SpaceID(1 + rng.IntN(3)), arch.VPN(rng.IntN(500))}
		if rng.IntN(16) == 0 {
			k.vpn = ^k.vpn
		}
		return k
	}
	for step := 0; step < 4000; step++ {
		i := rng.IntN(len(pairs))
		p, ref := pairs[i].p, pairs[i].ref
		k := key()
		switch op := rng.IntN(1000); {
		case op < 600:
			if _, ok := ref[k]; !ok {
				f := arch.PFN(8 + rng.IntN(64))
				p.Enter(k.space, k.vpn, f, arch.ProtReadWrite, KindUser)
				ref[k] = f
			}
		case op < 988:
			p.Remove(k.space, k.vpn)
			delete(ref, k)
		case op < 990:
			last := map[arch.PFN]arch.VPN{}
			for rk, f := range ref {
				if rk.space == k.space {
					last[f] = max(last[f], rk.vpn)
					delete(ref, rk)
				}
			}
			p.RemoveAll(k.space)
			for f, vpn := range last {
				if pp := &p.phys[f]; !pp.hasLast || pp.lastVPN != vpn {
					t.Fatalf("step %d: RemoveAll(%d) left frame %d last VPN %#x, want %#x", step, k.space, f, uint64(pp.lastVPN), uint64(vpn))
				}
			}
		default:
			if len(pairs) < 4 {
				pairs = append(pairs, pair{p.Clone(r.m.Clone()), maps.Clone(ref)})
			}
		}
		// The copy just changed is checked every step, every copy (so
		// none picked up another's change) with its lists periodically.
		for j := range pairs {
			if j == i || step%64 == 0 {
				checkPageTable(t, pairs[j].p, pairs[j].ref, step%64 == 0, fmt.Sprintf("step %d copy %d", step, j))
			}
		}
	}
	if len(pairs[0].p.pt.chunks) < 2 {
		t.Fatalf("table never outgrew one chunk (%d records)", pairs[0].p.pt.n)
	}
}

// checkPageTable compares a pmap's page table, and when lists is set its
// per-frame mapping lists, with a reference map.
func checkPageTable(t *testing.T, p *Pmap, ref map[ptKey]arch.PFN, lists bool, where string) {
	t.Helper()
	want := map[arch.PFN][]core.Mapping{}
	for k, f := range ref {
		if got, ok := p.Translate(k.space, k.vpn); !ok || got != f {
			t.Fatalf("%s: Translate(%d, %#x) = %d,%t, reference %d", where, k.space, uint64(k.vpn), got, ok, f)
		}
		want[f] = append(want[f], core.Mapping{Space: k.space, VPN: k.vpn, CachePage: p.dcolor(k.vpn)})
	}
	live := 0
	for i := int32(0); i < p.pt.n; i++ {
		if e := p.pt.at(i); e.live {
			live++
			if f, ok := ref[ptKey{e.space, e.vpn}]; !ok || f != e.pfn {
				t.Fatalf("%s: record %d maps (%d, %#x) to %d, reference %d,%t", where, i, e.space, uint64(e.vpn), e.pfn, f, ok)
			}
		}
	}
	if live != len(ref) || live+len(p.pt.free) != int(p.pt.n) {
		t.Fatalf("%s: %d live and %d free of %d records, reference %d keys", where, live, len(p.pt.free), p.pt.n, len(ref))
	}
	if !lists {
		return
	}
	byKey := func(a, b core.Mapping) int {
		if a.Space != b.Space {
			return int(a.Space) - int(b.Space)
		}
		return cmp.Compare(a.VPN, b.VPN)
	}
	for f := range p.phys {
		got, w := slices.Clone(p.Mappings(arch.PFN(f))), want[arch.PFN(f)]
		slices.SortFunc(got, byKey)
		slices.SortFunc(w, byKey)
		if !slices.Equal(got, w) {
			t.Fatalf("%s: frame %d mappings %v, reference %v", where, f, got, w)
		}
	}
}
