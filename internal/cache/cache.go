// Package cache provides the sharded, mutex-striped LRU cache behind the
// serving layer. The paper's efficiency argument (§4.1) is that the
// per-query diversification knowledge — the specializations S_q mined by
// Algorithm 1 and their R_q′ surrogate result lists — is small enough to
// precompute and keep in memory for the ambiguous head of the query
// stream. This cache is the dynamic version of that store: entries are
// admitted on first sight and evicted least-recently-used, so a Zipf-
// skewed query mix (the shape of real logs, Appendix B) converges to
// exactly the hot set the paper proposes to materialize.
//
// The cache is striped across shards, each guarded by its own mutex, so
// concurrent readers on different shards never contend; within a shard a
// hand-rolled doubly-linked list gives O(1) lookup, insert and eviction.
package cache

import (
	"sync"
)

// Cache is a sharded LRU mapping string keys (normalized queries) to
// values of type V. All methods are safe for concurrent use. The zero
// value is not usable; construct with New.
type Cache[V any] struct {
	shards []*shard[V]
	mask   uint64
}

// Stats is an aggregated snapshot of cache activity.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
	Capacity  int
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// New builds a cache holding at most capacity entries, striped over the
// given number of shards (rounded up to a power of two, then down so no
// shard is left with zero capacity). capacity < 1 is treated as 1;
// shards < 1 as 1. Capacity is enforced per shard (⌊capacity/shards⌋
// each), the standard striped-LRU approximation: a pathological key skew
// can evict slightly early, never late, and the total never exceeds
// capacity.
func New[V any](capacity, shards int) *Cache[V] {
	if capacity < 1 {
		capacity = 1
	}
	if shards < 1 {
		shards = 1
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	for n > capacity {
		n >>= 1
	}
	perShard := capacity / n
	c := &Cache[V]{
		shards: make([]*shard[V], n),
		mask:   uint64(n - 1),
	}
	for i := range c.shards {
		c.shards[i] = newShard[V](perShard)
	}
	return c
}

// Get returns the value cached under key and whether it was present,
// promoting the entry to most-recently-used. The key is given as bytes so
// that a caller can look up a key it assembled in a stack buffer without
// making it a string: the lookup does not keep it.
func (c *Cache[V]) Get(key []byte) (V, bool) {
	return c.shards[fnv1a(key)&c.mask].get(key)
}

// Peek returns the value cached under key and whether it was present
// without counting a lookup or touching the LRU order — for a caller
// that has already counted its miss through Get and is only making sure
// the entry did not arrive since.
func (c *Cache[V]) Peek(key string) (V, bool) {
	return c.shard(key).peek(key)
}

// Put stores value under key (inserting or overwriting), promoting it to
// most-recently-used and evicting the shard's least-recently-used entry
// if the shard is over capacity.
func (c *Cache[V]) Put(key string, value V) {
	c.shard(key).put(key, value)
}

// Len returns the current number of cached entries.
func (c *Cache[V]) Len() int {
	n := 0
	for _, s := range c.shards {
		n += s.len()
	}
	return n
}

// Stats aggregates activity counters across all shards.
func (c *Cache[V]) Stats() Stats {
	var st Stats
	for _, s := range c.shards {
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Evictions += s.evictions
		st.Entries += len(s.items)
		st.Capacity += s.capacity
		s.mu.Unlock()
	}
	return st
}

func (c *Cache[V]) shard(key string) *shard[V] {
	return c.shards[fnv1a(key)&c.mask]
}

// fnv1a is the 64-bit FNV-1a hash of a key, string or bytes alike, inlined
// to keep the hot path allocation-free.
func fnv1a[K string | []byte](s K) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// node is one entry in a shard's intrusive LRU list.
type node[V any] struct {
	key        string
	value      V
	prev, next *node[V]
}

// shard is one mutex-guarded stripe: a map for O(1) lookup and a
// sentinel-rooted doubly-linked list ordered most- to least-recently used.
type shard[V any] struct {
	mu        sync.Mutex
	capacity  int
	items     map[string]*node[V]
	root      node[V] // sentinel: root.next = MRU, root.prev = LRU
	hits      int64
	misses    int64
	evictions int64
}

func newShard[V any](capacity int) *shard[V] {
	s := &shard[V]{
		capacity: capacity,
		items:    make(map[string]*node[V], capacity+1),
	}
	s.root.next = &s.root
	s.root.prev = &s.root
	return s
}

func (s *shard[V]) get(key []byte) (V, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.items[string(key)]
	if !ok {
		s.misses++
		var zero V
		return zero, false
	}
	s.hits++
	s.moveToFront(n)
	return n.value, true
}

func (s *shard[V]) peek(key string) (V, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n, ok := s.items[key]; ok {
		return n.value, true
	}
	var zero V
	return zero, false
}

func (s *shard[V]) put(key string, value V) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n, ok := s.items[key]; ok {
		n.value = value
		s.moveToFront(n)
		return
	}
	n := &node[V]{key: key, value: value}
	s.items[key] = n
	s.pushFront(n)
	if len(s.items) > s.capacity {
		lru := s.root.prev
		s.unlink(lru)
		delete(s.items, lru.key)
		s.evictions++
	}
}

func (s *shard[V]) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.items)
}

func (s *shard[V]) pushFront(n *node[V]) {
	n.prev = &s.root
	n.next = s.root.next
	n.prev.next = n
	n.next.prev = n
}

func (s *shard[V]) unlink(n *node[V]) {
	n.prev.next = n.next
	n.next.prev = n.prev
	n.prev, n.next = nil, nil
}

func (s *shard[V]) moveToFront(n *node[V]) {
	if s.root.next == n {
		return
	}
	s.unlink(n)
	s.pushFront(n)
}
