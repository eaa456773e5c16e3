package pages

import (
	"container/list"
	"fmt"
)

// Stats counts the buffer pool's traffic. PageReads is the number of pages
// fetched from the pager (pool misses) — the quantity that separates the
// representations in Fig. 5; Hits is the number of requests served from
// memory; PageWrites counts dirty evictions and flushes.
type Stats struct {
	PageReads  uint64
	PageWrites uint64
	Hits       uint64
}

type frame struct {
	id    PageID
	page  Page
	dirty bool
	pins  int
	lru   *list.Element
}

// Pool is an LRU buffer pool in front of a Pager, used by one goroutine.
// A pinned *Page aliases pool memory.
type Pool struct {
	pager    Pager
	capacity int
	frames   map[PageID]*frame
	lru      *list.List // of PageID, front = most recent
	stats    Stats
}

// NewPool creates a buffer pool of the given capacity (pages) over a pager.
func NewPool(pager Pager, capacity int) *Pool {
	if capacity < 1 {
		capacity = 1
	}
	return &Pool{
		pager:    pager,
		capacity: capacity,
		frames:   make(map[PageID]*frame, capacity),
		lru:      list.New(),
	}
}

// Stats returns the accumulated counters.
func (p *Pool) Stats() Stats { return p.stats }

// ResetStats zeroes the counters (between benchmark phases).
func (p *Pool) ResetStats() { p.stats = Stats{} }

// Pin fetches the page into the pool and pins it. Every Pin must be paired
// with an Unpin. The returned *Page aliases pool memory.
func (p *Pool) Pin(id PageID) (*Page, error) {
	if fr, ok := p.frames[id]; ok {
		p.stats.Hits++
		fr.pins++
		p.lru.MoveToFront(fr.lru)
		return &fr.page, nil
	}
	fr, err := p.allocFrame(id)
	if err != nil {
		return nil, err
	}
	if err := p.pager.ReadPage(id, &fr.page); err != nil {
		p.dropFrame(fr)
		return nil, err
	}
	p.stats.PageReads++
	fr.pins = 1
	return &fr.page, nil
}

// PinNew allocates a brand-new page at the end of the file, zeroed and
// pinned. The caller must initialize and Unpin it (dirty).
func (p *Pool) PinNew() (PageID, *Page, error) {
	id := p.pager.NumPages()
	// Materialize the page in the file so subsequent reads succeed.
	var empty Page
	empty.Reset()
	if err := p.pager.WritePage(id, &empty); err != nil {
		return 0, nil, err
	}
	p.stats.PageWrites++
	fr, err := p.allocFrame(id)
	if err != nil {
		return 0, nil, err
	}
	fr.page.Reset()
	fr.pins = 1
	return id, &fr.page, nil
}

// Unpin releases a pin, marking the page dirty if it was modified.
func (p *Pool) Unpin(id PageID, dirty bool) error {
	fr, ok := p.frames[id]
	if !ok || fr.pins == 0 {
		return fmt.Errorf("pages: unpin of unpinned page %d", id)
	}
	fr.pins--
	fr.dirty = fr.dirty || dirty
	return nil
}

// Flush writes all dirty pages back to the pager.
func (p *Pool) Flush() error {
	for _, fr := range p.frames {
		if fr.dirty {
			if err := p.pager.WritePage(fr.id, &fr.page); err != nil {
				return err
			}
			p.stats.PageWrites++
			fr.dirty = false
		}
	}
	return nil
}

// Invalidate drops all unpinned frames (dirty ones are flushed first) so
// the next accesses hit the pager again — used to cold-start benchmark
// phases.
func (p *Pool) Invalidate() error {
	if err := p.Flush(); err != nil {
		return err
	}
	for _, fr := range p.frames {
		if fr.pins == 0 {
			p.dropFrame(fr)
		}
	}
	return nil
}

func (p *Pool) allocFrame(id PageID) (*frame, error) {
	if len(p.frames) >= p.capacity {
		if err := p.evict(); err != nil {
			return nil, err
		}
	}
	fr := &frame{id: id}
	fr.lru = p.lru.PushFront(id)
	p.frames[id] = fr
	return fr, nil
}

func (p *Pool) dropFrame(fr *frame) {
	p.lru.Remove(fr.lru)
	delete(p.frames, fr.id)
}

func (p *Pool) evict() error {
	for e := p.lru.Back(); e != nil; e = e.Prev() {
		id := e.Value.(PageID)
		fr := p.frames[id]
		if fr.pins > 0 {
			continue
		}
		if fr.dirty {
			if err := p.pager.WritePage(fr.id, &fr.page); err != nil {
				return err
			}
			p.stats.PageWrites++
		}
		p.dropFrame(fr)
		return nil
	}
	return fmt.Errorf("pages: buffer pool exhausted (%d pages, all pinned)", p.capacity)
}
