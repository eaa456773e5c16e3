package pages

import (
	"fmt"
	"os"
)

// Pager reads and writes fixed-size pages by ID. Implementations: FilePager
// (disk-backed) and MemPager (RAM-backed, for tests and for isolating CPU
// cost from I/O in ablation benchmarks).
type Pager interface {
	// ReadPage fills buf with the page's contents.
	ReadPage(id PageID, buf *Page) error
	// WritePage persists buf as the page's contents, extending the backing
	// store if id is one past the end.
	WritePage(id PageID, buf *Page) error
	// NumPages returns the number of allocated pages.
	NumPages() PageID
	// Close releases the backing store.
	Close() error
}

// FilePager stores pages in an operating-system file, one PageSize block
// each. Like the pool over it, it serves one goroutine.
type FilePager struct {
	f      *os.File
	npages PageID
}

// OpenFile opens (or creates) a page file at path.
func OpenFile(path string) (*FilePager, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pages: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size()%PageSize != 0 {
		f.Close()
		return nil, fmt.Errorf("pages: %s size %d is not a whole number of pages", path, st.Size())
	}
	return &FilePager{f: f, npages: PageID(st.Size() / PageSize)}, nil
}

// ReadPage implements Pager.
func (fp *FilePager) ReadPage(id PageID, buf *Page) error {
	if id >= fp.npages {
		return fmt.Errorf("pages: read of unallocated page %d (have %d)", id, fp.npages)
	}
	_, err := fp.f.ReadAt(buf.Data[:], int64(id)*PageSize)
	return err
}

// WritePage implements Pager.
func (fp *FilePager) WritePage(id PageID, buf *Page) error {
	if id > fp.npages {
		return fmt.Errorf("pages: write would leave a hole at page %d (have %d)", id, fp.npages)
	}
	if _, err := fp.f.WriteAt(buf.Data[:], int64(id)*PageSize); err != nil {
		return err
	}
	if id == fp.npages {
		fp.npages++
	}
	return nil
}

// NumPages implements Pager.
func (fp *FilePager) NumPages() PageID { return fp.npages }

// Sync flushes the file to stable storage.
func (fp *FilePager) Sync() error { return fp.f.Sync() }

// Close implements Pager.
func (fp *FilePager) Close() error { return fp.f.Close() }

// MemPager stores pages in memory.
type MemPager struct {
	pages []*Page
}

// NewMemPager returns an empty in-memory pager.
func NewMemPager() *MemPager { return &MemPager{} }

// ReadPage implements Pager.
func (mp *MemPager) ReadPage(id PageID, buf *Page) error {
	if int(id) >= len(mp.pages) {
		return fmt.Errorf("pages: read of unallocated page %d (have %d)", id, len(mp.pages))
	}
	*buf = *mp.pages[id]
	return nil
}

// WritePage implements Pager.
func (mp *MemPager) WritePage(id PageID, buf *Page) error {
	if int(id) > len(mp.pages) {
		return fmt.Errorf("pages: write would leave a hole at page %d (have %d)", id, len(mp.pages))
	}
	cp := *buf
	if int(id) == len(mp.pages) {
		mp.pages = append(mp.pages, &cp)
	} else {
		mp.pages[id] = &cp
	}
	return nil
}

// NumPages implements Pager.
func (mp *MemPager) NumPages() PageID { return PageID(len(mp.pages)) }

// Close implements Pager.
func (mp *MemPager) Close() error { return nil }
