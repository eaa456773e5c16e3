package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"

	"probdb/internal/vfs"
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

// ErrCorruptPage reports that a page's on-disk bytes fail their checksum —
// a torn write, bit rot, or outside interference. Errors from ReadPage wrap
// it (errors.Is) with the file and page identified, so the engine can
// quarantine the damaged table instead of dying.
var ErrCorruptPage = errors.New("storage: corrupt page")

// diskPageSize is a page's on-disk footprint: the 8 KiB image followed by a
// CRC32C (Castagnoli) trailer. The checksum lives outside the page image so
// every page consumer — slotted heaps, raw B+-tree nodes — keeps the full
// PageSize bytes and stays oblivious to it; torn-write detection is a
// property of the storage medium, not of the page layout.
const diskPageSize = PageSize + 4

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// FilePager stores checksummed pages in an operating-system file.
type FilePager struct {
	f      vfs.File
	path   string
	npages PageID

	// scratch assembles image+trailer for one write; the mutex covers it
	// and npages for pagers shared by several pools.
	mu      sync.Mutex
	scratch [diskPageSize]byte
}

// OpenFile opens (or creates) a page file at path on the real filesystem.
func OpenFile(path string) (*FilePager, error) {
	return OpenFileFS(vfs.OS, path)
}

// OpenFileFS opens (or creates) a page file at path on fsys.
func OpenFileFS(fsys vfs.FS, path string) (*FilePager, error) {
	return openFS(fsys, path, os.O_RDWR|os.O_CREATE)
}

// CreateFileFS creates an empty page file at path on fsys, truncating any
// existing contents — the checkpoint writer's entry point.
func CreateFileFS(fsys vfs.FS, path string) (*FilePager, error) {
	return openFS(fsys, path, os.O_RDWR|os.O_CREATE|os.O_TRUNC)
}

func openFS(fsys vfs.FS, path string, flag int) (*FilePager, error) {
	f, err := fsys.OpenFile(path, flag, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size()%diskPageSize != 0 {
		f.Close()
		return nil, fmt.Errorf("storage: %s size %d is not page aligned (checksummed pages are %d bytes)",
			path, st.Size(), diskPageSize)
	}
	return &FilePager{f: f, path: path, npages: PageID(st.Size() / diskPageSize)}, nil
}

// ReadPage implements Pager, verifying the page's checksum. A mismatch
// returns an error wrapping ErrCorruptPage.
func (fp *FilePager) ReadPage(id PageID, buf *Page) error {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	if id >= fp.npages {
		return fmt.Errorf("storage: read of unallocated page %d (have %d)", id, fp.npages)
	}
	if _, err := fp.f.ReadAt(fp.scratch[:], int64(id)*diskPageSize); err != nil {
		return err
	}
	stored := binary.LittleEndian.Uint32(fp.scratch[PageSize:])
	if sum := crc32.Checksum(fp.scratch[:PageSize], castagnoli); sum != stored {
		return fmt.Errorf("%w: %s page %d (stored crc %08x, computed %08x)",
			ErrCorruptPage, fp.path, id, stored, sum)
	}
	copy(buf.Data[:], fp.scratch[:PageSize])
	return nil
}

// WritePage implements Pager, stamping the page's checksum.
func (fp *FilePager) WritePage(id PageID, buf *Page) error {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	if id > fp.npages {
		return fmt.Errorf("storage: write would leave a hole at page %d (have %d)", id, fp.npages)
	}
	copy(fp.scratch[:PageSize], buf.Data[:])
	binary.LittleEndian.PutUint32(fp.scratch[PageSize:], crc32.Checksum(buf.Data[:], castagnoli))
	if _, err := fp.f.WriteAt(fp.scratch[:], int64(id)*diskPageSize); err != nil {
		return err
	}
	if id == fp.npages {
		fp.npages++
	}
	return nil
}

// NumPages implements Pager.
func (fp *FilePager) NumPages() PageID {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	return fp.npages
}

// Sync flushes the file to stable storage.
func (fp *FilePager) Sync() error { return fp.f.Sync() }

// Path returns the backing file's path.
func (fp *FilePager) Path() string { return fp.path }

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
		return fmt.Errorf("storage: read of unallocated page %d (have %d)", id, len(mp.pages))
	}
	*buf = *mp.pages[id]
	return nil
}

// WritePage implements Pager.
func (mp *MemPager) WritePage(id PageID, buf *Page) error {
	if int(id) > len(mp.pages) {
		return fmt.Errorf("storage: write would leave a hole at page %d (have %d)", id, len(mp.pages))
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
