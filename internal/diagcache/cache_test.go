package diagcache

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// fixedEntry is a test entry with a fixed accounted size.
type fixedEntry struct{ size int64 }

func (e *fixedEntry) SizeBytes() int64 { return e.size }

// growingEntry models an evaluator whose retained state grows lazily.
type growingEntry struct {
	mu   sync.Mutex
	size int64
}

func (e *growingEntry) SizeBytes() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.size
}

func (e *growingEntry) grow(by int64) {
	e.mu.Lock()
	e.size += by
	e.mu.Unlock()
}

func key(tenant, ds string, gen uint64) Key {
	return Key{Tenant: tenant, DatasetID: ds, Generation: gen, RegionFP: 7}
}

func TestGetPutHitMiss(t *testing.T) {
	c := New(8, 0, nil)
	k := key("t1", "ds-1", 1)
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	e := &fixedEntry{size: 100}
	c.Put(k, e)
	got, ok := c.Get(k)
	if !ok || got != Entry(e) {
		t.Fatalf("want cached entry back, got %v ok=%v", got, ok)
	}
	s := c.Stats()
	if s.Lookups != 2 || s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats %+v", s)
	}
	if s.Entries != 1 || s.Bytes != 100 {
		t.Fatalf("occupancy %+v", s)
	}
	if s.HitRatio() != 0.5 {
		t.Fatalf("hit ratio %v", s.HitRatio())
	}
}

// TestLRUEviction: inserting past the entry bound drops the least
// recently used key, and a Get refreshes recency.
func TestLRUEviction(t *testing.T) {
	c := New(2, 0, nil)
	k1, k2, k3 := key("t", "a", 1), key("t", "b", 1), key("t", "c", 1)
	c.Put(k1, &fixedEntry{size: 1})
	c.Put(k2, &fixedEntry{size: 1})
	c.Get(k1) // k2 is now LRU
	c.Put(k3, &fixedEntry{size: 1})
	if _, ok := c.Get(k2); ok {
		t.Fatal("LRU entry survived eviction")
	}
	for _, k := range []Key{k1, k3} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("recently used %v evicted", k)
		}
	}
	if s := c.Stats(); s.Evictions != 1 {
		t.Fatalf("evictions %d", s.Evictions)
	}
}

// TestByteBudgetEviction: the byte budget evicts independently of the
// entry bound, and an entry that alone exceeds the budget is dropped.
func TestByteBudgetEviction(t *testing.T) {
	c := New(0, 250, nil)
	c.Put(key("t", "a", 1), &fixedEntry{size: 100})
	c.Put(key("t", "b", 1), &fixedEntry{size: 100})
	c.Put(key("t", "c", 1), &fixedEntry{size: 100}) // 300 > 250: evict oldest
	if got := c.Len(); got != 2 {
		t.Fatalf("len %d", got)
	}
	if got := c.Bytes(); got != 200 {
		t.Fatalf("bytes %d", got)
	}
	if _, ok := c.Get(key("t", "a", 1)); ok {
		t.Fatal("oldest entry survived byte-budget eviction")
	}

	c.Put(key("t", "big", 1), &fixedEntry{size: 1000})
	if _, ok := c.Get(key("t", "big", 1)); ok {
		t.Fatal("oversized entry was retained")
	}
	if got := c.Bytes(); got != 0 {
		t.Fatalf("bytes after oversized insert %d (everything should be evicted)", got)
	}
}

// TestPutRefreshReaccounts: re-putting a key whose entry grew updates
// the byte accounting instead of double-counting.
func TestPutRefreshReaccounts(t *testing.T) {
	c := New(8, 0, nil)
	k := key("t", "a", 1)
	e := &growingEntry{size: 100}
	c.Put(k, e)
	e.grow(50)
	c.Put(k, e)
	if got := c.Bytes(); got != 150 {
		t.Fatalf("bytes %d, want 150", got)
	}
	if got := c.Len(); got != 1 {
		t.Fatalf("len %d, want 1", got)
	}
}

// TestInvalidateDatasetScoped: invalidation drops exactly the
// (tenant, dataset) slice — the same tenant's other datasets and a
// neighbour tenant's same-named dataset stay hot.
func TestInvalidateDatasetScoped(t *testing.T) {
	c := New(16, 0, nil)
	kA1 := key("alice", "ds-1", 1)
	kA1b := Key{Tenant: "alice", DatasetID: "ds-1", Generation: 1, RegionFP: 99}
	kA2 := key("alice", "ds-2", 1)
	kB1 := key("bob", "ds-1", 1)
	for _, k := range []Key{kA1, kA1b, kA2, kB1} {
		c.Put(k, &fixedEntry{size: 10})
	}
	if n := c.InvalidateDataset("alice", "ds-1"); n != 2 {
		t.Fatalf("invalidated %d entries, want 2", n)
	}
	for _, k := range []Key{kA1, kA1b} {
		if _, ok := c.Get(k); ok {
			t.Fatalf("invalidated key %v still cached", k)
		}
	}
	for _, k := range []Key{kA2, kB1} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("unrelated key %v was dropped", k)
		}
	}
	s := c.Stats()
	if s.Invalidations != 2 || s.Evictions != 0 {
		t.Fatalf("stats %+v", s)
	}
	if s.Bytes != 20 {
		t.Fatalf("bytes %d", s.Bytes)
	}
	if n := c.InvalidateDataset("alice", "ds-1"); n != 0 {
		t.Fatalf("second invalidation dropped %d", n)
	}
}

// recordingObserver checks the Observer callbacks mirror the stats.
type recordingObserver struct {
	mu            sync.Mutex
	hits, misses  int
	evictions     int
	invalidations int
	freedBytes    int64
	entries       int
	bytes         int64
}

func (o *recordingObserver) ObserveLookup(hit bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if hit {
		o.hits++
	} else {
		o.misses++
	}
}

func (o *recordingObserver) ObserveEviction(bytes int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.evictions++
	o.freedBytes += bytes
}

func (o *recordingObserver) ObserveInvalidation(bytes int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.invalidations++
	o.freedBytes += bytes
}

func (o *recordingObserver) SetOccupancy(entries int, bytes int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.entries, o.bytes = entries, bytes
}

func TestObserverCallbacks(t *testing.T) {
	o := &recordingObserver{}
	c := New(2, 0, o)
	c.Get(key("t", "a", 1))
	c.Put(key("t", "a", 1), &fixedEntry{size: 10})
	c.Get(key("t", "a", 1))
	c.Put(key("t", "b", 1), &fixedEntry{size: 20})
	c.Put(key("t", "c", 1), &fixedEntry{size: 30}) // evicts a
	c.InvalidateDataset("t", "b")
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.hits != 1 || o.misses != 1 {
		t.Fatalf("observer lookups hits=%d misses=%d", o.hits, o.misses)
	}
	if o.evictions != 1 || o.invalidations != 1 || o.freedBytes != 30 {
		t.Fatalf("observer drops evictions=%d invalidations=%d freed=%d",
			o.evictions, o.invalidations, o.freedBytes)
	}
	if o.entries != 1 || o.bytes != 30 {
		t.Fatalf("observer occupancy entries=%d bytes=%d", o.entries, o.bytes)
	}
}

// TestCoherenceInvariant drives a randomized workload and checks the
// cache's bookkeeping invariants at the end: every lookup was either a
// hit or a miss, and the bytes gauge equals the sum of the accounted
// sizes of the entries still resident.
func TestCoherenceInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := New(8, 2000, nil)
	live := make(map[Key]*fixedEntry)
	for i := 0; i < 5000; i++ {
		k := key(fmt.Sprintf("t%d", rng.Intn(3)), fmt.Sprintf("ds-%d", rng.Intn(4)), uint64(rng.Intn(5)))
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			c.Get(k)
		case 4, 5, 6, 7:
			e := &fixedEntry{size: int64(rng.Intn(400) + 1)}
			c.Put(k, e)
			live[k] = e
		case 8:
			c.InvalidateDataset(k.Tenant, k.DatasetID)
		case 9:
			c.Stats()
		}
	}
	s := c.Stats()
	if s.Hits+s.Misses != s.Lookups {
		t.Fatalf("lookup coherence broken: hits=%d misses=%d lookups=%d", s.Hits, s.Misses, s.Lookups)
	}
	// Recompute resident bytes from the cache's own view: every live
	// key either Gets (resident: count its entry) or misses.
	var resident int64
	entries := 0
	for k, e := range live {
		if _, ok := c.Get(k); ok {
			resident += e.size
			entries++
		}
	}
	if s.Bytes != resident {
		t.Fatalf("bytes gauge %d != accounted entry sizes %d", s.Bytes, resident)
	}
	if s.Entries != entries {
		t.Fatalf("entries gauge %d != resident entries %d", s.Entries, entries)
	}
	if s.Entries > 8 || s.Bytes > 2000 {
		t.Fatalf("budget exceeded: %+v", s)
	}
}

// TestConcurrentAccess hammers the cache from many goroutines (run
// under -race) and checks the coherence invariant afterwards.
func TestConcurrentAccess(t *testing.T) {
	c := New(16, 10_000, &recordingObserver{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				k := key(fmt.Sprintf("t%d", rng.Intn(2)), fmt.Sprintf("ds-%d", rng.Intn(3)), uint64(rng.Intn(3)))
				switch rng.Intn(4) {
				case 0:
					c.Get(k)
				case 1:
					c.Put(k, &fixedEntry{size: int64(rng.Intn(900) + 1)})
				case 2:
					c.InvalidateDataset(k.Tenant, k.DatasetID)
				case 3:
					c.Stats()
				}
			}
		}(int64(g))
	}
	wg.Wait()
	s := c.Stats()
	if s.Hits+s.Misses != s.Lookups {
		t.Fatalf("lookup coherence broken after concurrency: %+v", s)
	}
	if s.Entries > 16 || s.Bytes > 10_000 {
		t.Fatalf("budget exceeded after concurrency: %+v", s)
	}
}
