// Package rescache is the content-addressed result cache behind the
// simulation service. Every run in this repository is deterministic: a
// scenario request, its seed, and the code version fully determine the
// result bytes. That makes a result cacheable forever under a key
// derived from exactly those three inputs — a hit is a map lookup
// where a miss is a simulation, and the cached bytes are guaranteed
// byte-identical to what a fresh run would produce (the service's
// tests gate this across the policy grid).
//
// The cache is a plain LRU over response byte slices with a byte
// budget: inserting past the budget evicts least-recently-used entries
// until the new entry fits. Hit/miss/eviction counters feed the
// /metrics endpoint.
package rescache

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"sync"
)

// Key derives the content address for a result: SHA-256 over the code
// version and the canonical request encoding, hex-encoded. Callers are
// responsible for canonicalization (encoding/json.Marshal of a fixed
// struct is canonical: field order is declaration order and map keys
// are sorted).
func Key(codeVersion string, canonical []byte) string {
	h := sha256.New()
	h.Write([]byte(codeVersion))
	h.Write([]byte{0}) // domain separator: version and body never blur
	h.Write(canonical)
	return hex.EncodeToString(h.Sum(nil))
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Puts      uint64
	Rejected  uint64 // values larger than the whole budget
	Bytes     int64
	Entries   int
}

// HitRate returns hits / (hits + misses), 0 when nothing was looked
// up yet.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

type entry struct {
	key string
	val []byte
}

// Cache is a byte-budgeted LRU keyed by content address. The zero
// value is not usable; use New. All methods are safe for concurrent
// use.
type Cache struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64
	lru     *list.List // front = most recently used
	entries map[string]*list.Element

	hits, misses, evictions, puts, rejected uint64
}

// New returns a cache that holds at most budgetBytes of cached value
// bytes (keys and bookkeeping are not charged). A non-positive budget
// yields a cache that stores nothing — every Get is a miss, so the
// service degrades to always-simulate rather than failing.
func New(budgetBytes int64) *Cache {
	return &Cache{
		budget:  budgetBytes,
		lru:     list.New(),
		entries: make(map[string]*list.Element),
	}
}

// Get returns the cached bytes for key. The returned slice is the
// cache's own backing array: callers must treat it as immutable (the
// service only ever writes it to an http.ResponseWriter).
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	val, ok := c.hit(key)
	if !ok {
		c.misses++
	}
	return val, ok
}

// Hit is Get for a caller that will validate the request further on
// a miss: a hit counts and refreshes recency as in Get, but a miss
// counts nothing, so the later Get that follows a successful
// validation counts it exactly once, and a request refused in between
// counts neither.
func (c *Cache) Hit(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hit(key)
}

// hit returns key's bytes, counting the hit and refreshing recency;
// callers hold c.mu.
func (c *Cache) hit(key string) ([]byte, bool) {
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(*entry).val, true
}

// Contains reports whether key is cached without touching recency or
// the hit/miss counters.
func (c *Cache) Contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// Put inserts val under key, evicting least-recently-used entries
// until it fits. It reports whether the value was stored: a value
// larger than the entire budget is rejected (storing it would evict
// everything and then still not fit a second one). Re-putting an
// existing key refreshes its value and recency.
func (c *Cache) Put(key string, val []byte) bool {
	size := int64(len(val))
	c.mu.Lock()
	defer c.mu.Unlock()
	if size > c.budget {
		c.rejected++
		return false
	}
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*entry)
		c.bytes += size - int64(len(e.val))
		e.val = val
		c.lru.MoveToFront(el)
	} else {
		c.entries[key] = c.lru.PushFront(&entry{key: key, val: val})
		c.bytes += size
		c.puts++
	}
	for c.bytes > c.budget {
		c.evictOldest()
	}
	return true
}

// evictOldest removes the LRU tail; callers hold c.mu.
func (c *Cache) evictOldest() {
	el := c.lru.Back()
	if el == nil {
		return
	}
	e := el.Value.(*entry)
	c.lru.Remove(el)
	delete(c.entries, e.key)
	c.bytes -= int64(len(e.val))
	c.evictions++
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Puts:      c.puts,
		Rejected:  c.rejected,
		Bytes:     c.bytes,
		Entries:   len(c.entries),
	}
}
