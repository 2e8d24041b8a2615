package policy

import (
	"fmt"
	"testing"
)

// TestConfigsAreCumulative verifies the A→F ladder turns exactly one
// feature on per step, in the paper's order.
func TestConfigsAreCumulative(t *testing.T) {
	cfgs := Configs()
	if len(cfgs) != 6 {
		t.Fatalf("got %d configs", len(cfgs))
	}
	labels := []string{"A", "B", "C", "D", "E", "F"}
	for i, c := range cfgs {
		if c.Label != labels[i] {
			t.Errorf("config %d labeled %s", i, c.Label)
		}
		if c.Features.Variant != VariantCMU {
			t.Errorf("config %s not the CMU variant", c.Label)
		}
	}
	flags := func(f Features) []bool {
		return []bool{f.LazyUnmap, f.AlignPages, f.AlignedPrepare, f.NeedData, f.WillOverwrite}
	}
	for i, c := range cfgs {
		on := 0
		for _, b := range flags(c.Features) {
			if b {
				on++
			}
		}
		if on != i {
			t.Errorf("config %s has %d features on, want %d", c.Label, on, i)
		}
		// Cumulative: everything on in config i stays on in i+1.
		if i > 0 {
			prev := flags(cfgs[i-1].Features)
			cur := flags(c.Features)
			for j := range prev {
				if prev[j] && !cur[j] {
					t.Errorf("config %s dropped a feature of %s", c.Label, cfgs[i-1].Label)
				}
			}
		}
	}
	if cfgs[0].Features.LazyUnmap {
		t.Error("config A must be fully eager")
	}
	f := cfgs[5].Features
	if !(f.LazyUnmap && f.AlignPages && f.AlignedPrepare && f.NeedData && f.WillOverwrite) {
		t.Error("config F must have every optimization")
	}
	if f.ColoredFreeList {
		t.Error("colored free lists are an extension, not part of F")
	}
}

func TestOldAndNew(t *testing.T) {
	if Old().Label != "A" || New().Label != "F" {
		t.Error("Table 1 aliases wrong")
	}
}

func TestTable5Systems(t *testing.T) {
	sys := Table5Systems()
	if len(sys) != 5 {
		t.Fatalf("got %d systems", len(sys))
	}
	byLabel := map[string]Config{}
	for _, s := range sys {
		byLabel[s.Label] = s
	}
	if byLabel["CMU"].Features != ConfigF().Features {
		t.Error("CMU must be configuration F")
	}
	if byLabel["Utah"].Features.LazyUnmap || byLabel["Apollo"].Features.LazyUnmap {
		t.Error("Utah and Apollo clean eagerly")
	}
	tut := byLabel["Tut"].Features
	if tut.Variant != VariantTut || !tut.LazyUnmap || !tut.AlignedPrepare {
		t.Errorf("Tut features wrong: %+v", tut)
	}
	if tut.AlignPages {
		t.Error("Tut does not align multiply mapped pages (only text)")
	}
	sun := byLabel["Sun"].Features
	if sun.Variant != VariantSun || sun.LazyUnmap {
		t.Errorf("Sun features wrong: %+v", sun)
	}
}

func TestVariantStrings(t *testing.T) {
	if VariantCMU.String() != "cmu" || VariantTut.String() != "tut" || VariantSun.String() != "sun" {
		t.Error("variant names wrong")
	}
}

// TestBackendRegistry pins the backends: each has its own name, CMU is
// the zero value, so every configuration literal without a backend
// still denotes the paper's algorithm, and every backend is reachable
// from a label.
func TestBackendRegistry(t *testing.T) {
	seen := map[string]bool{}
	for b := range NumBackends {
		name := b.String()
		if name == fmt.Sprintf("Backend(%d)", uint8(b)) || seen[name] {
			t.Errorf("backend %d has no name of its own: %q", uint8(b), name)
		}
		seen[name] = true
	}
	var zero Backend
	if zero != BackendCMU {
		t.Fatal("the zero Backend must be CMU")
	}
	reached := map[Backend]bool{}
	for _, c := range All() {
		reached[c.Features.Backend] = true
	}
	if len(reached) != int(NumBackends) {
		t.Errorf("labels reach %d of %d backends", len(reached), NumBackends)
	}
}
