// Package diagcache is the server's cross-request diagnosis cache: a
// bounded, tenant-scoped LRU retaining the expensive intermediate state
// of recent diagnoses (prepared partition spaces and extracted
// predicates — see the public DiagnosisState) so a repeat diagnosis of
// the same incident skips Algorithm 1 entirely.
//
// Correctness never depends on this cache. Keys carry the dataset's
// generation number and a fingerprint of both regions, so any mutation
// produces a fresh key, and the diagnosis engine re-validates reused
// state against the live request regardless (a stale hit costs a cold
// run, never a wrong answer). The cache's own job is purely resource
// governance: bound entries and retained bytes, evict least-recently
// used first, and drop a (tenant, dataset) slice eagerly when the
// dataset is deleted or evicted from the store.
package diagcache

import (
	"container/list"
	"sync"
)

// Key identifies one diagnosis context. Two requests map to the same
// entry only when every field matches: the tenant (isolation — tenants
// never share cached state), the tenant-scoped dataset id, the
// dataset's generation number (bumped on every mutation, so stale data
// can never be served), and a fingerprint of the resolved abnormal and
// normal regions. Parameters are not part of the key: every cached
// diagnosis runs with the server's one parameter set, and the engine
// re-checks them on every reuse.
type Key struct {
	Tenant     string
	DatasetID  string
	Generation uint64
	RegionFP   uint64
}

// Entry is the cached value. The cache only needs its retained size;
// the server stores *dbsherlock.DiagnosisState values.
type Entry interface {
	SizeBytes() int64
}

// Observer receives the cache's operational signals. Callbacks run
// under the cache lock and must not call back into the cache; a nil
// Observer is off. internal/obs.CacheMetrics adapts a metrics registry
// onto this interface.
type Observer interface {
	// ObserveLookup records one Get: a hit or a miss.
	ObserveLookup(hit bool)
	// ObserveEviction records one entry dropped by capacity pressure
	// (LRU or byte budget), carrying its accounted size.
	ObserveEviction(bytes int64)
	// ObserveInvalidation records one entry dropped because its dataset
	// was deleted or replaced.
	ObserveInvalidation(bytes int64)
	// SetOccupancy reports the post-operation entry count and accounted
	// bytes after any mutation.
	SetOccupancy(entries int, bytes int64)
}

// Stats is a point-in-time snapshot of the cache's counters. The
// coherence invariants — Lookups == Hits+Misses, and Bytes equal to
// the sum of the accounted entry sizes — hold at every quiescent
// point and are pinned by tests.
type Stats struct {
	Lookups       uint64
	Hits          uint64
	Misses        uint64
	Evictions     uint64
	Invalidations uint64
	Entries       int
	Bytes         int64
}

// HitRatio returns Hits/Lookups, or 0 before the first lookup.
func (s Stats) HitRatio() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

type cacheEntry struct {
	key   Key
	entry Entry
	size  int64
}

// Cache is a bounded LRU keyed by Key. Safe for concurrent use.
type Cache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	bytes      int64
	ll         *list.List                     // front = most recently used
	items      map[Key]*list.Element          // -> *cacheEntry
	byDataset  map[[2]string]map[Key]struct{} // (tenant, dataset id) -> keys
	stats      Stats
	obs        Observer
}

// New returns a cache bounded to maxEntries entries and maxBytes
// accounted bytes. A bound <= 0 means unbounded on that axis (but at
// least one should be set — an unbounded cache of evaluators pins
// partition spaces forever). obs may be nil.
func New(maxEntries int, maxBytes int64, obs Observer) *Cache {
	return &Cache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		items:      make(map[Key]*list.Element),
		byDataset:  make(map[[2]string]map[Key]struct{}),
		obs:        obs,
	}
}

// Get returns the entry for key and marks it most recently used.
func (c *Cache) Get(key Key) (Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Lookups++
	el, ok := c.items[key]
	if !ok {
		c.stats.Misses++
		if c.obs != nil {
			c.obs.ObserveLookup(false)
		}
		return nil, false
	}
	c.stats.Hits++
	c.ll.MoveToFront(el)
	if c.obs != nil {
		c.obs.ObserveLookup(true)
	}
	return el.Value.(*cacheEntry).entry, true
}

// Put inserts or replaces the entry for key, reading its SizeBytes,
// and marks it most recently used. Oversized entries that alone exceed
// the byte budget are not retained.
func (c *Cache) Put(key Key, e Entry) {
	if e == nil {
		return
	}
	size := e.SizeBytes()
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		ce := el.Value.(*cacheEntry)
		c.bytes += size - ce.size
		ce.entry, ce.size = e, size
		c.ll.MoveToFront(el)
	} else {
		el := c.ll.PushFront(&cacheEntry{key: key, entry: e, size: size})
		c.items[key] = el
		c.bytes += size
		dk := [2]string{key.Tenant, key.DatasetID}
		keys := c.byDataset[dk]
		if keys == nil {
			keys = make(map[Key]struct{})
			c.byDataset[dk] = keys
		}
		keys[key] = struct{}{}
	}
	for c.overBudget() {
		c.evictOldest()
	}
	c.occupancyChanged()
}

func (c *Cache) overBudget() bool {
	if c.ll.Len() == 0 {
		return false
	}
	return (c.maxEntries > 0 && c.ll.Len() > c.maxEntries) ||
		(c.maxBytes > 0 && c.bytes > c.maxBytes)
}

// evictOldest drops the least-recently-used entry. Caller holds mu.
func (c *Cache) evictOldest() {
	el := c.ll.Back()
	if el == nil {
		return
	}
	ce := el.Value.(*cacheEntry)
	c.remove(el, ce)
	c.stats.Evictions++
	if c.obs != nil {
		c.obs.ObserveEviction(ce.size)
	}
}

// remove unlinks one entry from every index. Caller holds mu.
func (c *Cache) remove(el *list.Element, ce *cacheEntry) {
	c.ll.Remove(el)
	delete(c.items, ce.key)
	c.bytes -= ce.size
	dk := [2]string{ce.key.Tenant, ce.key.DatasetID}
	if keys := c.byDataset[dk]; keys != nil {
		delete(keys, ce.key)
		if len(keys) == 0 {
			delete(c.byDataset, dk)
		}
	}
}

// InvalidateDataset drops every entry cached for the given tenant's
// dataset and returns how many were dropped. Other tenants' datasets —
// including one with the same id — are untouched. Called on dataset
// DELETE and on store-side eviction; generation-keyed misses would age
// the entries out anyway, but eager invalidation frees their partition
// spaces immediately.
func (c *Cache) InvalidateDataset(tenant, datasetID string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := c.byDataset[[2]string{tenant, datasetID}]
	if len(keys) == 0 {
		return 0
	}
	n := 0
	for key := range keys {
		el, ok := c.items[key]
		if !ok {
			continue
		}
		ce := el.Value.(*cacheEntry)
		c.remove(el, ce)
		c.stats.Invalidations++
		if c.obs != nil {
			c.obs.ObserveInvalidation(ce.size)
		}
		n++
	}
	c.occupancyChanged()
	return n
}

// occupancyChanged pushes the current occupancy to the observer.
// Caller holds mu.
func (c *Cache) occupancyChanged() {
	c.stats.Entries = c.ll.Len()
	c.stats.Bytes = c.bytes
	if c.obs != nil {
		c.obs.SetOccupancy(c.ll.Len(), c.bytes)
	}
}

// Stats returns a snapshot of the cache counters and occupancy.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.ll.Len()
	s.Bytes = c.bytes
	return s
}

// Len returns the current entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes returns the currently accounted retained bytes.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
