package colpdf

import "sync/atomic"

// Cache counts how the per-batch encodings of base tables were found: a hit
// when a batch's Block was already built, a miss when a reader had to build
// it. The encodings themselves live with the batches they encode (see
// core.Table); these totals feed EXPLAIN's col cache line and HEALTH. A nil
// *Cache ignores every call.
type Cache struct {
	hits   atomic.Uint64
	misses atomic.Uint64
}

// NewCache returns a cache with zeroed counters.
func NewCache() *Cache { return &Cache{} }

// Note counts one lookup of a batch's Block: a hit when it was found built.
func (c *Cache) Note(hit bool) {
	switch {
	case c == nil:
	case hit:
		c.hits.Add(1)
	default:
		c.misses.Add(1)
	}
}

// Counters returns the hit/miss totals.
func (c *Cache) Counters() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}
