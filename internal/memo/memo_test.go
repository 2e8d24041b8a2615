package memo

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
)

func bodySize(b []byte) int64 { return int64(len(b)) }

// TestCacheEvictionAccounting walks the LRU across its eviction
// boundary and checks that entry count, byte accounting, and the
// eviction counter all stay consistent — including through an in-place
// update that changes an entry's size.
func TestCacheEvictionAccounting(t *testing.T) {
	c := NewCache(2, bodySize)
	body := func(n int) []byte { return bytes.Repeat([]byte{'x'}, n) }

	c.Put("a", body(10))
	c.Put("b", body(20))
	if s := c.Stats(); s.Entries != 2 || s.Bytes != 30 || s.Evictions != 0 {
		t.Fatalf("before eviction: %+v", s)
	}

	// Third insert crosses the capacity boundary: "a" (LRU) goes.
	c.Put("c", body(40))
	s := c.Stats()
	if s.Entries != 2 || s.Evictions != 1 {
		t.Fatalf("after first eviction: %+v", s)
	}
	if s.Bytes != 60 {
		t.Fatalf("bytes after evicting the 10-byte entry: got %d, want 60", s.Bytes)
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("evicted entry still retrievable")
	}

	// Touch "b" so it is MRU, then insert again: "c" must go, not "b".
	if _, ok := c.Get("b"); !ok {
		t.Fatal("entry b missing before second eviction")
	}
	c.Put("d", body(5))
	if _, ok := c.Get("c"); ok {
		t.Fatal("LRU order ignored: c survived while recently-used b should")
	}
	if _, ok := c.Get("b"); !ok {
		t.Fatal("recently-used entry b was evicted")
	}
	s = c.Stats()
	if s.Entries != 2 || s.Evictions != 2 || s.Bytes != 25 {
		t.Fatalf("after second eviction: %+v", s)
	}

	// An in-place update must adjust bytes by the size delta, not
	// double-count, and must not evict.
	c.Put("b", body(2))
	s = c.Stats()
	if s.Entries != 2 || s.Evictions != 2 || s.Bytes != 7 {
		t.Fatalf("after in-place resize: %+v", s)
	}
}

// TestCacheCapacityPinned: a cache holds exactly its capacity, evicting
// one entry per insert past it, and a capacity <= 0 — which would mean
// an unbounded cache — is refused at construction.
func TestCacheCapacityPinned(t *testing.T) {
	const capacity = 512
	c := NewCache(capacity, bodySize)
	for i := 0; i < capacity+16; i++ {
		c.Put(fmt.Sprintf("key-%d", i), []byte("v"))
	}
	if s := c.Stats(); s.Entries != capacity || s.Evictions != 16 || s.Bytes != capacity {
		t.Fatalf("after overfilling a %d-entry cache by 16: %+v", capacity, s)
	}
	for _, bad := range []int{0, -1, -512} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCache(%d) did not panic", bad)
				}
			}()
			NewCache(bad, bodySize)
		}()
	}
}

// TestCacheLookupCounting: Get counts a hit or a miss, Recheck a hit
// but never a miss, and Peek neither; all three find the same value.
func TestCacheLookupCounting(t *testing.T) {
	c := NewCache(4, bodySize)
	c.Put("a", []byte("aa"))
	for _, look := range []func(string) ([]byte, bool){c.Get, c.Recheck, c.Peek} {
		if v, ok := look("a"); !ok || string(v) != "aa" {
			t.Fatalf("lookup of a = %q, %t", v, ok)
		}
		if _, ok := look("z"); ok {
			t.Fatal("lookup of absent z found a value")
		}
	}
	if s := c.Stats(); s.Hits != 2 || s.Misses != 1 {
		t.Fatalf("Get+Recheck+Peek counted %d hits / %d misses, want 2/1", s.Hits, s.Misses)
	}
}

// TestFlightOneOwner: of N concurrent joins on one key exactly one owns
// the call; every waiter sees the owner's value and error, and after
// Finish the key is free for a new call.
func TestFlightOneOwner(t *testing.T) {
	var f Flight[int]
	const n = 16
	errOwner := errors.New("owner's error")
	calls := make(chan *Call[int], n)
	owners := make(chan *Call[int], n)
	var joined sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		joined.Add(1)
		go func() {
			defer joined.Done()
			<-start
			c, owner := f.Join("k")
			if owner {
				owners <- c
			}
			calls <- c
		}()
	}
	close(start)
	joined.Wait()
	close(owners)
	close(calls)
	if len(owners) != 1 {
		t.Fatalf("%d of %d concurrent joins own the call, want exactly 1", len(owners), n)
	}
	owned := <-owners
	f.Finish("k", owned, 42, errOwner)
	for c := range calls {
		if c != owned {
			t.Fatal("a waiter joined a different call than the owner's")
		}
		<-c.Done()
		if c.Val != 42 || c.Err != errOwner {
			t.Fatalf("waiter saw %d, %v; want 42, %v", c.Val, c.Err, errOwner)
		}
	}
	if c, owner := f.Join("k"); !owner || c == owned {
		t.Fatal("the key is still held after Finish")
	}
}
