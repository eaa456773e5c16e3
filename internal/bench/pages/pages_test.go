package pages

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func TestPageAppendAndRecord(t *testing.T) {
	var p Page
	p.Reset()
	recs := [][]byte{[]byte("hello"), []byte(""), bytes.Repeat([]byte("x"), 1000)}
	for i, r := range recs {
		slot, err := p.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		if slot != i {
			t.Errorf("slot = %d, want %d", slot, i)
		}
	}
	for i, r := range recs {
		got, err := p.Record(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, r) {
			t.Errorf("record %d = %q, want %q", i, got, r)
		}
	}
	if _, err := p.Record(3); err == nil {
		t.Error("out-of-range slot should fail")
	}
	if _, err := p.Record(-1); err == nil {
		t.Error("negative slot should fail")
	}
}

func TestPageFull(t *testing.T) {
	var p Page
	p.Reset()
	rec := bytes.Repeat([]byte("a"), 1000)
	n := 0
	for {
		if _, err := p.Append(rec); err != nil {
			if err != ErrPageFull {
				t.Fatalf("unexpected error %v", err)
			}
			break
		}
		n++
	}
	if n != (PageSize-pageHdrSize)/(1000+slotSize) {
		t.Errorf("fitted %d records", n)
	}
	if _, err := p.Append(bytes.Repeat([]byte("b"), PageSize)); err == ErrPageFull {
		t.Error("oversized record should be a hard error, not ErrPageFull")
	}
}

func TestPagePropertyRoundTrip(t *testing.T) {
	f := func(recs [][]byte) bool {
		var p Page
		p.Reset()
		var stored [][]byte
		for _, r := range recs {
			if len(r) > 2000 {
				r = r[:2000]
			}
			if _, err := p.Append(r); err != nil {
				break
			}
			stored = append(stored, r)
		}
		for i, want := range stored {
			got, err := p.Record(i)
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return p.NumRecords() == len(stored)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func testPagers(t *testing.T) map[string]Pager {
	dir := t.TempDir()
	fp, err := OpenFile(filepath.Join(dir, "t.pages"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fp.Close() })
	return map[string]Pager{"file": fp, "mem": NewMemPager()}
}

func TestPagerReadWrite(t *testing.T) {
	for name, pg := range testPagers(t) {
		t.Run(name, func(t *testing.T) {
			var p Page
			p.Reset()
			p.Append([]byte("first"))
			if err := pg.WritePage(0, &p); err != nil {
				t.Fatal(err)
			}
			if err := pg.WritePage(2, &p); err == nil {
				t.Error("write with a hole should fail")
			}
			var q Page
			if err := pg.ReadPage(0, &q); err != nil {
				t.Fatal(err)
			}
			rec, err := q.Record(0)
			if err != nil || string(rec) != "first" {
				t.Errorf("read back %q, %v", rec, err)
			}
			if err := pg.ReadPage(9, &q); err == nil {
				t.Error("read of unallocated page should fail")
			}
			if pg.NumPages() != 1 {
				t.Errorf("pages = %d", pg.NumPages())
			}
		})
	}
}

func TestFilePagerPersists(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.pages")
	fp, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var p Page
	p.Reset()
	p.Append([]byte("durable"))
	if err := fp.WritePage(0, &p); err != nil {
		t.Fatal(err)
	}
	if err := fp.Sync(); err != nil {
		t.Fatal(err)
	}
	fp.Close()

	fp2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fp2.Close()
	if fp2.NumPages() != 1 {
		t.Fatalf("reopened pages = %d", fp2.NumPages())
	}
	var q Page
	if err := fp2.ReadPage(0, &q); err != nil {
		t.Fatal(err)
	}
	rec, _ := q.Record(0)
	if string(rec) != "durable" {
		t.Errorf("read back %q", rec)
	}
}

func TestPoolHitAndMissAccounting(t *testing.T) {
	pool := NewPool(NewMemPager(), 2)
	id0, pg, err := pool.PinNew()
	if err != nil {
		t.Fatal(err)
	}
	pg.Append([]byte("a"))
	pool.Unpin(id0, true)
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	// First pin after flush is a hit (still resident).
	if _, err := pool.Pin(id0); err != nil {
		t.Fatal(err)
	}
	pool.Unpin(id0, false)
	st := pool.Stats()
	if st.Hits != 1 {
		t.Errorf("hits = %d, want 1", st.Hits)
	}
	// Invalidate, then pin misses.
	if err := pool.Invalidate(); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Pin(id0); err != nil {
		t.Fatal(err)
	}
	pool.Unpin(id0, false)
	if got := pool.Stats().PageReads; got != 1 {
		t.Errorf("reads = %d, want 1", got)
	}
}

func TestPoolEvictsLRU(t *testing.T) {
	pool := NewPool(NewMemPager(), 2)
	var ids []PageID
	for i := 0; i < 3; i++ {
		id, pg, err := pool.PinNew()
		if err != nil {
			t.Fatal(err)
		}
		pg.Append([]byte{byte(i)})
		pool.Unpin(id, true)
		ids = append(ids, id)
	}
	// Page 0 was evicted (capacity 2); pinning it must be a read.
	pool.ResetStats()
	pg, err := pool.Pin(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := pg.Record(0)
	if rec[0] != 0 {
		t.Errorf("evicted page content lost: %v", rec)
	}
	pool.Unpin(ids[0], false)
	if pool.Stats().PageReads != 1 {
		t.Errorf("reads = %d, want 1 (page must have been evicted)", pool.Stats().PageReads)
	}
}

func TestPoolAllPinnedFails(t *testing.T) {
	pool := NewPool(NewMemPager(), 1)
	id, _, err := pool.PinNew()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := pool.PinNew(); err == nil {
		t.Error("pool with all pages pinned should fail")
	}
	pool.Unpin(id, false)
	if err := pool.Unpin(id, false); err == nil {
		t.Error("double unpin should fail")
	}
}

func TestHeapAppendScanGet(t *testing.T) {
	pool := NewPool(NewMemPager(), 8)
	h := NewHeap(pool)
	var rids []RID
	var want [][]byte
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		rec := make([]byte, 10+r.Intn(50))
		r.Read(rec)
		rid, err := h.Append(rec)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
		want = append(want, rec)
	}
	if h.NumPages() < 2 {
		t.Errorf("expected multiple pages, got %d", h.NumPages())
	}
	// Point lookups.
	for _, i := range []int{0, 1, 4999, 2500} {
		got, err := h.Get(rids[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Errorf("Get(%v) mismatch", rids[i])
		}
	}
	// Full scan preserves order and contents.
	i := 0
	err := h.Scan(func(rid RID, rec []byte) error {
		if !bytes.Equal(rec, want[i]) {
			return fmt.Errorf("record %d mismatch", i)
		}
		if rid != rids[i] {
			return fmt.Errorf("rid %d mismatch: %v vs %v", i, rid, rids[i])
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != 5000 {
		t.Errorf("scanned %d records", i)
	}
}

func TestHeapScanAbortsOnError(t *testing.T) {
	pool := NewPool(NewMemPager(), 4)
	h := NewHeap(pool)
	for i := 0; i < 10; i++ {
		if _, err := h.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	err := h.Scan(func(RID, []byte) error {
		n++
		if n == 3 {
			return fmt.Errorf("stop")
		}
		return nil
	})
	if err == nil || n != 3 {
		t.Errorf("scan should abort at 3, got n=%d err=%v", n, err)
	}
}

func TestHeapOnDiskWithSmallPool(t *testing.T) {
	// A scan over a file much larger than the pool re-reads every page.
	path := filepath.Join(t.TempDir(), "h.pages")
	fp, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fp.Close()
	pool := NewPool(fp, 4)
	h := NewHeap(pool)
	rec := bytes.Repeat([]byte("r"), 400)
	for i := 0; i < 2000; i++ {
		if _, err := h.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.Invalidate(); err != nil {
		t.Fatal(err)
	}
	pool.ResetStats()
	n := 0
	if err := h.Scan(func(RID, []byte) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 2000 {
		t.Errorf("scanned %d", n)
	}
	if got, want := pool.Stats().PageReads, uint64(h.NumPages()); got != want {
		t.Errorf("cold scan reads = %d, want %d (every page)", got, want)
	}
}

func TestHeapReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "h.pages")
	fp, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(fp, 4)
	h := NewHeap(pool)
	for i := 0; i < 100; i++ {
		if _, err := h.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	fp.Close()

	fp2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fp2.Close()
	h2 := NewHeap(NewPool(fp2, 4))
	n := 0
	if err := h2.Scan(func(_ RID, rec []byte) error {
		if rec[0] != byte(n) {
			return fmt.Errorf("record %d corrupted", n)
		}
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Errorf("reopened scan saw %d records", n)
	}
	// Appends continue on the existing tail page.
	if _, err := h2.Append([]byte{200}); err != nil {
		t.Fatal(err)
	}
	if h2.NumPages() != 1 {
		t.Errorf("append after reopen should reuse the tail page, pages = %d", h2.NumPages())
	}
}

// TestFilePagerRejectsMisalignedFile: a file whose size is not a whole
// number of pages (e.g. a truncated copy) must be refused at open.
func TestFilePagerRejectsMisalignedFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.pages")
	if err := os.WriteFile(path, make([]byte, PageSize+1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path); err == nil {
		t.Fatal("opened a misaligned page file")
	}
}
