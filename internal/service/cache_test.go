package service

import (
	"fmt"
	"testing"
)

// TestCacheCapPinned pins the unbounded-growth fix: a zero or negative
// Config.CacheEntries is not "no limit" but the default bound, and the
// service's result cache stops growing at it.
func TestCacheCapPinned(t *testing.T) {
	for _, capacity := range []int{0, -1, -512} {
		if cfg := (Config{CacheEntries: capacity}).withDefaults(); cfg.CacheEntries != defaultCacheEntries {
			t.Fatalf("Config CacheEntries %d defaults to %d, want %d", capacity, cfg.CacheEntries, defaultCacheEntries)
		}
	}

	// Overfill past the pinned bound and confirm eviction engages.
	c := New(Config{}).cache
	for i := 0; i < defaultCacheEntries+16; i++ {
		c.Put(fmt.Sprintf("key-%d", i), []byte("v"))
	}
	s := c.Stats()
	if s.Entries != defaultCacheEntries {
		t.Fatalf("default cache grew to %d entries, want pinned at %d", s.Entries, defaultCacheEntries)
	}
	if s.Evictions != 16 {
		t.Fatalf("expected 16 evictions past the pin, got %d", s.Evictions)
	}
}
