package service

import (
	"container/list"
	"sync"
)

// resultCache is the content-addressed result store: resolved spec hash
// → rendered response body. Identical requests are byte-identical
// simulations (the harness determinism guarantee), so a cached body is
// authoritative for every future request with the same key. Bounded LRU;
// eviction is by entry count.
type resultCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	byKey map[string]*list.Element

	hits, misses, evictions uint64
	bytes                   int64
}

type cacheEntry struct {
	key  string
	body []byte
}

// defaultCacheEntries is the fallback capacity when a caller hands the
// cache a non-positive bound. The eviction loop treats cap<=0 as "never
// evict", so letting such a value through would grow the cache without
// bound; an unbounded result store is never a valid configuration.
const defaultCacheEntries = 512

func newResultCache(capacity int) *resultCache {
	if capacity <= 0 {
		capacity = defaultCacheEntries
	}
	return &resultCache{
		cap:   capacity,
		ll:    list.New(),
		byKey: make(map[string]*list.Element),
	}
}

// get returns the cached body for key, marking it most recently used.
func (c *resultCache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// recheck is get for the owner's double-check after joining the flight
// group: a hit counts as a cache hit, but a miss — the expected fresh
// path — does not inflate the miss counter a second time.
func (c *resultCache) recheck(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// put stores body under key, evicting least-recently-used entries to
// stay within capacity.
func (c *resultCache) put(key string, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		e := el.Value.(*cacheEntry)
		c.bytes += int64(len(body)) - int64(len(e.body))
		e.body = body
		c.ll.MoveToFront(el)
		return
	}
	c.byKey[key] = c.ll.PushFront(&cacheEntry{key: key, body: body})
	c.bytes += int64(len(body))
	for c.cap > 0 && c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		e := oldest.Value.(*cacheEntry)
		c.ll.Remove(oldest)
		delete(c.byKey, e.key)
		c.bytes -= int64(len(e.body))
		c.evictions++
	}
}

type cacheStats struct {
	Hits, Misses, Evictions uint64
	Entries                 int
	Bytes                   int64
}

func (c *resultCache) stats() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   c.ll.Len(),
		Bytes:     c.bytes,
	}
}
