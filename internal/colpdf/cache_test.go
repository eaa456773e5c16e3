package colpdf

import "testing"

func TestCacheNilSafety(t *testing.T) {
	var c *Cache
	c.Note(true)
	c.Note(false)
	if h, m := c.Counters(); h != 0 || m != 0 {
		t.Error("nil cache reported counters")
	}
}

func TestCacheHitMissCounters(t *testing.T) {
	c := NewCache()
	c.Note(false)
	c.Note(true)
	c.Note(true)
	if h, m := c.Counters(); h != 2 || m != 1 {
		t.Fatalf("counters = %d hits, %d misses", h, m)
	}
}
