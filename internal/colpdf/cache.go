package colpdf

import (
	"sync"
	"sync/atomic"

	"probdb/internal/govern"
)

// CacheKey identifies one cached columnar encoding: the owning table's
// identity and DML version, the dependency set and marginal dimension the
// encoding covers (a certain column's Lane takes Dep -1-col), and the tuple
// batch [From, From+N) it was built over —
// executors encode per batch, so a LIMIT query never pays for encoding
// tuples it will not read. Versions bump on every Insert/Delete, so a stale
// entry can never be read — invalidation only reclaims its memory early.
type CacheKey struct {
	Table, Ver uint64
	Dep, Dim   int32
	From, N    int32
}

// cached is what the cache holds: a pdf column's Block or a certain
// column's Lane.
type cached interface{ MemCost() int64 }

type cacheEntry struct {
	val  cached
	cost int64
}

// Cache holds columnar encodings keyed by table version. It is nil-safe (a
// nil *Cache ignores every call), optionally charged to a govern budget, and
// sheddable under memory pressure. The encoding is pure acceleration state:
// dropping any entry only forces a re-encode.
type Cache struct {
	mu    sync.Mutex
	m     map[CacheKey]cacheEntry
	bytes int64
	// bud, when set, is charged per entry by estimated block cost. The
	// server registers Shed first in the reclaim order, ahead of cancelling
	// the hungriest query.
	bud    atomic.Pointer[govern.Budget]
	hits   atomic.Uint64
	misses atomic.Uint64
	// shed accumulates the bytes Shed has reclaimed over the cache's
	// lifetime — the HEALTH report's measure of how often memory pressure
	// has cost this cache its contents.
	shed atomic.Int64
}

// maxEntries bounds the cache so version churn on unbudgeted servers cannot
// grow it without limit; eviction is arbitrary (any entry re-encodes).
// Batch-granular entries are small, so the cap stays generous enough to
// hold a few full large-table scans.
const maxEntries = 4096

// NewCache returns an empty cache.
func NewCache() *Cache { return &Cache{m: make(map[CacheKey]cacheEntry)} }

// SetBudget attaches a budget charged per cached encoding. Safe to call
// while the cache is in use; entries cached before the call are charged
// when they are eventually evicted, not retroactively.
func (c *Cache) SetBudget(b *govern.Budget) {
	if c == nil || b == nil {
		return
	}
	c.bud.Store(b)
}

// Get returns the cached block for k, or nil.
func (c *Cache) Get(k CacheKey) *Block {
	if c == nil {
		return nil
	}
	v, ok := c.get(k)
	if !ok {
		c.misses.Add(1)
		return nil
	}
	c.hits.Add(1)
	b, _ := v.(*Block)
	return b
}

// GetLane returns the cached certain-column lane for k, or nil. Lane
// lookups are not counted: the hit and miss totals (EXPLAIN's col cache
// line, HEALTH) describe the pdf encodings.
func (c *Cache) GetLane(k CacheKey) *Lane {
	v, _ := c.get(k)
	l, _ := v.(*Lane)
	return l
}

func (c *Cache) get(k CacheKey) (cached, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	e, ok := c.m[k]
	c.mu.Unlock()
	return e.val, ok
}

// Put caches v with the given cost estimate. It reports false when the
// budget rejects the charge (the caller keeps its scratch encoding and
// nothing is cached — governance stays inert when unconfigured because a
// nil budget accepts everything).
func (c *Cache) Put(k CacheKey, v cached, cost int64) bool {
	if c == nil {
		return false
	}
	bud := c.bud.Load()
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.m[k]; ok {
		delete(c.m, k)
		c.bytes -= old.cost
		bud.Release(old.cost)
	}
	for key := range c.m {
		if len(c.m) < maxEntries {
			break
		}
		e := c.m[key]
		delete(c.m, key)
		c.bytes -= e.cost
		bud.Release(e.cost)
	}
	if err := bud.Reserve(cost); err != nil {
		return false
	}
	c.m[k] = cacheEntry{val: v, cost: cost}
	c.bytes += cost
	return true
}

// InvalidateTable drops every entry belonging to the table, releasing their
// budget charges. DML calls it on version bump so superseded encodings do
// not linger until eviction.
func (c *Cache) InvalidateTable(tid uint64) {
	if c == nil {
		return
	}
	bud := c.bud.Load()
	c.mu.Lock()
	var freed int64
	for k, e := range c.m {
		if k.Table == tid {
			delete(c.m, k)
			c.bytes -= e.cost
			freed += e.cost
		}
	}
	c.mu.Unlock()
	bud.Release(freed)
}

// Shed drops entries until at least want bytes are freed (everything when
// want <= 0 would free less), returning the bytes released. It is the
// cache's govern.Reclaimer.
func (c *Cache) Shed(want int64) int64 {
	if c == nil {
		return 0
	}
	bud := c.bud.Load()
	c.mu.Lock()
	var freed int64
	for k, e := range c.m {
		if want > 0 && freed >= want {
			break
		}
		delete(c.m, k)
		c.bytes -= e.cost
		freed += e.cost
	}
	c.mu.Unlock()
	bud.Release(freed)
	c.shed.Add(freed)
	return freed
}

// ShedTotal returns the cumulative bytes Shed has reclaimed.
func (c *Cache) ShedTotal() int64 {
	if c == nil {
		return 0
	}
	return c.shed.Load()
}

// Bytes returns the estimated bytes currently cached.
func (c *Cache) Bytes() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Len returns the number of cached encodings.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Counters returns the hit/miss totals.
func (c *Cache) Counters() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}
