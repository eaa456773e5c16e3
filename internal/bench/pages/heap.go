package pages

// RID addresses one record in a heap file: page and slot.
type RID struct {
	Page PageID
	Slot uint16
}

// Heap is an append-oriented heap file of variable-length records on top of
// a buffer pool — the access method the Fig. 5 scans run against.
type Heap struct {
	pool *Pool
	// tail is the page currently receiving appends (the last page), or
	// invalid when the file is empty.
	tailValid bool
	tail      PageID
}

// NewHeap creates a heap over the pool's pager. If the underlying file
// already has pages, appends continue on the last page.
func NewHeap(pool *Pool) *Heap {
	h := &Heap{pool: pool}
	if n := pool.pager.NumPages(); n > 0 {
		h.tailValid = true
		h.tail = n - 1
	}
	return h
}

// NumPages returns the number of pages in the heap.
func (h *Heap) NumPages() PageID { return h.pool.pager.NumPages() }

// Append stores a record and returns its RID.
func (h *Heap) Append(rec []byte) (RID, error) {
	if h.tailValid {
		pg, err := h.pool.Pin(h.tail)
		if err != nil {
			return RID{}, err
		}
		slot, err := pg.Append(rec)
		if err == nil {
			return RID{Page: h.tail, Slot: uint16(slot)}, h.pool.Unpin(h.tail, true)
		}
		if uerr := h.pool.Unpin(h.tail, false); uerr != nil {
			return RID{}, uerr
		}
		if err != ErrPageFull {
			return RID{}, err
		}
	}
	id, pg, err := h.pool.PinNew()
	if err != nil {
		return RID{}, err
	}
	slot, err := pg.Append(rec)
	if err != nil {
		h.pool.Unpin(id, false)
		return RID{}, err
	}
	h.tailValid = true
	h.tail = id
	return RID{Page: id, Slot: uint16(slot)}, h.pool.Unpin(id, true)
}

// Get returns a copy of the record at rid.
func (h *Heap) Get(rid RID) ([]byte, error) {
	pg, err := h.pool.Pin(rid.Page)
	if err != nil {
		return nil, err
	}
	rec, err := pg.Record(int(rid.Slot))
	if err != nil {
		h.pool.Unpin(rid.Page, false)
		return nil, err
	}
	out := make([]byte, len(rec))
	copy(out, rec)
	return out, h.pool.Unpin(rid.Page, false)
}

// Scan calls fn for every record in file order. The record slice passed to
// fn aliases pool memory and must not be retained. Returning a non-nil
// error from fn aborts the scan with that error.
func (h *Heap) Scan(fn func(rid RID, rec []byte) error) error {
	n := h.NumPages()
	for id := PageID(0); id < n; id++ {
		pg, err := h.pool.Pin(id)
		if err != nil {
			return err
		}
		for s := 0; s < pg.NumRecords(); s++ {
			rec, err := pg.Record(s)
			if err == nil {
				err = fn(RID{Page: id, Slot: uint16(s)}, rec)
			}
			if err != nil {
				h.pool.Unpin(id, false)
				return err
			}
		}
		if err := h.pool.Unpin(id, false); err != nil {
			return err
		}
	}
	return nil
}
