// Package memo holds the two keyed-memoization mechanisms the simulator
// serves repeated work with: Cache, a bounded LRU of finished values,
// and Flight, a singleflight that lets one caller compute a value while
// every concurrent caller for the same key waits for it. The harness's
// snapshot pool keeps frozen machine images in them; the service keeps
// rendered result bodies.
//
// The callers share one invariant: an owner that succeeds puts its
// value in the Cache before it calls Finish, so at every instant a
// finished key is findable in the Cache or the Flight, never neither.
package memo

import (
	"container/list"
	"sync"
)

// Cache is a mutex-guarded LRU keyed by string, bounded by entry count.
// It totals a caller-supplied size per value, and counts hits, misses
// and evictions.
type Cache[V any] struct {
	mu    sync.Mutex
	cap   int
	size  func(V) int64
	ll    *list.List // front = most recently used
	byKey map[string]*list.Element

	hits, misses, evictions uint64
	bytes                   int64
}

type entry[V any] struct {
	key  string
	val  V
	size int64
}

// Stats is a point-in-time view of a Cache's counters.
type Stats struct {
	Hits, Misses, Evictions uint64
	Entries                 int
	Bytes                   int64
}

// NewCache returns a cache holding up to capacity values, accounting
// each at size(v) bytes. A capacity <= 0 is a programming error: an
// unbounded cache is never a valid configuration.
func NewCache[V any](capacity int, size func(V) int64) *Cache[V] {
	if capacity <= 0 {
		panic("memo: cache capacity must be positive")
	}
	return &Cache[V]{cap: capacity, size: size, ll: list.New(), byKey: make(map[string]*list.Element)}
}

// Get returns the value for key, marking it most recently used, and
// counts a hit or a miss.
func (c *Cache[V]) Get(key string) (V, bool) { return c.lookup(key, &c.hits, &c.misses) }

// Recheck is Get for a second look by a caller whose first look already
// counted its miss: a hit counts, a miss does not count again.
func (c *Cache[V]) Recheck(key string) (V, bool) { return c.lookup(key, &c.hits, nil) }

// Peek is Get that counts neither a hit nor a miss.
func (c *Cache[V]) Peek(key string) (V, bool) { return c.lookup(key, nil, nil) }

func (c *Cache[V]) lookup(key string, hit, miss *uint64) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		if miss != nil {
			*miss++
		}
		var zero V
		return zero, false
	}
	if hit != nil {
		*hit++
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry[V]).val, true
}

// Put stores v under key as the most recently used value. A value
// already under key is replaced in place and the byte total adjusted by
// the size difference; otherwise least recently used values are evicted
// beyond capacity.
func (c *Cache[V]) Put(key string, v V) {
	size := c.size(v)
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.byKey[key]; ok {
		e := old.Value.(*entry[V])
		c.bytes += size - e.size
		e.val, e.size = v, size
		c.ll.MoveToFront(old)
		return
	}
	c.byKey[key] = c.ll.PushFront(&entry[V]{key: key, val: v, size: size})
	c.bytes += size
	for c.ll.Len() > c.cap {
		e := c.ll.Remove(c.ll.Back()).(*entry[V])
		delete(c.byKey, e.key)
		c.bytes -= e.size
		c.evictions++
	}
}

// Stats returns the cache's counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Entries: c.ll.Len(), Bytes: c.bytes}
}

// Flight deduplicates concurrent work by key: the first caller to Join
// a key owns its Call and must settle it with Finish; every caller
// joining while it is in flight waits on the same Call. The zero value
// is ready to use.
type Flight[V any] struct {
	mu sync.Mutex
	m  map[string]*Call[V]
}

// Call is one in-flight computation. Val and Err are written once, by
// Finish, before Done's channel closes; read them only after it has.
type Call[V any] struct {
	done chan struct{}
	Val  V
	Err  error
}

// Done is closed when the call has been settled.
func (c *Call[V]) Done() <-chan struct{} { return c.done }

// Join returns the call in flight for key, starting one if there is
// none; owner reports whether this caller started it.
func (f *Flight[V]) Join(key string) (c *Call[V], owner bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.m[key]; ok {
		return c, false
	}
	if f.m == nil {
		f.m = make(map[string]*Call[V])
	}
	c = &Call[V]{done: make(chan struct{})}
	f.m[key] = c
	return c, true
}

// Finish settles the owner's call with its outcome and releases key:
// the next Join of key starts a new call.
func (f *Flight[V]) Finish(key string, c *Call[V], v V, err error) {
	c.Val, c.Err = v, err
	f.mu.Lock()
	delete(f.m, key)
	f.mu.Unlock()
	close(c.done)
}
