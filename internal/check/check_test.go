package check

import (
	"testing"

	"vcache/internal/policy"
)

// TestExploreShallow exhaustively checks every 3-step operation
// sequence under every selectable configuration — A–F, the Table 5
// systems and the peer backend (12³ = 1728 sequences each, with a
// 3-read epilogue).
func TestExploreShallow(t *testing.T) {
	for _, cfg := range policy.All() {
		cfg := cfg
		t.Run(cfg.Label, func(t *testing.T) {
			res, err := Explore(cfg.Features, 3)
			if err != nil {
				t.Fatal(err)
			}
			if res.Sequences != 12*12*12 {
				t.Errorf("explored %d sequences, want 1728", res.Sequences)
			}
			if res.Checks == 0 {
				t.Error("oracle never engaged")
			}
		})
	}
}

// TestExploreDeep checks every 5-step sequence (248,832 per policy,
// including CPU migration between any two steps) for the two extreme
// policies, the fully eager original and the fully lazy optimized
// system, and for Sun, whose uncached frames change what the caches
// hold rather than only what consistency costs (the checker's unaligned
// alias pair makes its frame uncached before the first step). Run with
// -short to skip.
func TestExploreDeep(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive depth-5 exploration skipped in -short mode")
	}
	for _, cfg := range []policy.Config{policy.Old(), policy.New(), policy.Sun()} {
		cfg := cfg
		t.Run(cfg.Label, func(t *testing.T) {
			res, err := Explore(cfg.Features, 5)
			if err != nil {
				t.Fatal(err)
			}
			want := 12 * 12 * 12 * 12 * 12
			if res.Sequences != want {
				t.Errorf("explored %d sequences, want %d", res.Sequences, want)
			}
			t.Logf("%s: %d sequences, %d steps, %d oracle checks",
				cfg.Label, res.Sequences, res.Steps, res.Checks)
		})
	}
}

// TestExploreColoredFreeList covers the allocator extension too.
func TestExploreColoredFreeList(t *testing.T) {
	feat := policy.New().Features
	feat.ColoredFreeList = true
	if _, err := Explore(feat, 3); err != nil {
		t.Fatal(err)
	}
}
