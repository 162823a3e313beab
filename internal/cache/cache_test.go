package cache

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func TestGetPutBasic(t *testing.T) {
	c := New[int](10, 1)
	if _, ok := c.Get([]byte("a")); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get([]byte("a")); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v; want 1, true", v, ok)
	}
	c.Put("a", 3) // overwrite
	if v, _ := c.Get([]byte("a")); v != 3 {
		t.Fatalf("after overwrite Get(a) = %d, want 3", v)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestEvictsLeastRecentlyUsed(t *testing.T) {
	// Single shard so the global LRU order is exact.
	c := New[int](3, 1)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3)
	c.Get([]byte("a")) // a is now MRU; b is LRU
	c.Put("d", 4)      // evicts b
	if _, ok := c.Get([]byte("b")); ok {
		t.Error("b should have been evicted")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get([]byte(k)); !ok {
			t.Errorf("%s should still be cached", k)
		}
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
}

// TestPeekIsInvisible: Peek reads without counting a lookup or saving an
// entry from eviction — hit rate and LRU order mean what they meant.
func TestPeekIsInvisible(t *testing.T) {
	c := New[int](2, 1)
	c.Put("a", 1)
	c.Put("b", 2) // a is LRU
	if v, ok := c.Peek("a"); !ok || v != 1 {
		t.Fatalf("Peek(a) = %d, %v; want 1, true", v, ok)
	}
	if _, ok := c.Peek("zzz"); ok {
		t.Fatal("Peek hit on an absent key")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Peek moved the counters: %+v", st)
	}
	c.Put("c", 3) // must still evict a: the Peek did not promote it
	if _, ok := c.Peek("a"); ok {
		t.Error("a survived eviction: Peek promoted it")
	}
	if _, ok := c.Peek("b"); !ok {
		t.Error("b was evicted in a's place")
	}
}

func TestCapacityBoundHolds(t *testing.T) {
	const capacity, shards = 64, 8
	c := New[int](capacity, shards)
	for i := 0; i < 10*capacity; i++ {
		c.Put(fmt.Sprintf("k%04d", i), i)
	}
	if n := c.Len(); n > capacity {
		t.Fatalf("Len = %d, exceeds capacity %d", n, capacity)
	}
	st := c.Stats()
	if st.Entries != c.Len() {
		t.Errorf("Stats.Entries = %d, Len = %d", st.Entries, c.Len())
	}
	if st.Evictions == 0 {
		t.Error("expected evictions after 10x-capacity inserts")
	}
}

func TestCapacityNeverExceededWhenNotDivisible(t *testing.T) {
	for _, tc := range []struct{ capacity, shards int }{
		{10, 4}, // 10/4 → 2 per shard over 4 shards
		{3, 16}, // more shards than capacity: stripes collapse to ≤3
		{1000, 16},
	} {
		c := New[int](tc.capacity, tc.shards)
		for i := 0; i < 20*tc.capacity; i++ {
			c.Put(fmt.Sprintf("k%05d", i), i)
		}
		if n := c.Len(); n > tc.capacity {
			t.Errorf("New(%d, %d): Len = %d exceeds capacity", tc.capacity, tc.shards, n)
		}
		if st := c.Stats(); st.Capacity > tc.capacity {
			t.Errorf("New(%d, %d): Stats.Capacity = %d exceeds requested", tc.capacity, tc.shards, st.Capacity)
		}
	}
}

func TestStatsHitRate(t *testing.T) {
	c := New[string](8, 2)
	c.Put("q", "v")
	c.Get([]byte("q"))
	c.Get([]byte("q"))
	c.Get([]byte("absent"))
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 2/1", st.Hits, st.Misses)
	}
	if got, want := st.HitRate(), 2.0/3.0; got != want {
		t.Errorf("HitRate = %f, want %f", got, want)
	}
	if (Stats{}).HitRate() != 0 {
		t.Error("zero-activity HitRate should be 0")
	}
}

func TestDegenerateSizes(t *testing.T) {
	c := New[int](0, 0) // clamps to 1 entry, 1 shard
	c.Put("a", 1)
	c.Put("b", 2)
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	if _, ok := c.Get([]byte("b")); !ok {
		t.Error("most recent key should survive in a 1-entry cache")
	}
}

// TestConcurrentAccess hammers the cache from many goroutines with a
// Zipf-ish skewed key set; run with -race. Correctness check: every hit
// must return the value written for that key.
func TestConcurrentAccess(t *testing.T) {
	c := New[int](128, 8)
	const workers = 16
	const opsPerWorker = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < opsPerWorker; i++ {
				// Skewed key space: low ids are hot, tail forces eviction.
				id := rng.Intn(1 + rng.Intn(512))
				key := fmt.Sprintf("k%04d", id)
				if rng.Intn(2) == 0 {
					c.Put(key, id)
				} else if v, ok := c.Get([]byte(key)); ok && v != id {
					t.Errorf("Get(%s) = %d, want %d", key, v, id)
				}
			}
		}(int64(w))
	}
	wg.Wait()
	st := c.Stats()
	if st.Entries > st.Capacity {
		t.Errorf("entries %d exceed capacity %d", st.Entries, st.Capacity)
	}
	if st.Hits == 0 {
		t.Error("expected some hits on a skewed workload")
	}
}
