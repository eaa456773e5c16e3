// Package pages is the page-based storage engine under the Fig. 5
// benchmarks (internal/bench, cmd/probgen): a disk pager, an LRU buffer
// pool with read/write accounting, and slotted heap files. The paper ran
// inside PostgreSQL; the cost separation its Fig. 5 reports comes from tuple
// size → pages touched → buffer misses, and this package reproduces exactly
// that mechanism. All I/O flows through the pool and is counted, so
// benchmarks can report both wall time and the page reads that drive it.
// Every type here serves one goroutine.
package pages

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// PageSize is the fixed page size, matching PostgreSQL's default.
const PageSize = 8192

// PageID identifies a page within a file.
type PageID uint32

// Page is one fixed-size page. The slotted layout is:
//
//	[0:2)   slot count n
//	[2:4)   free-space offset (start of the record area tail)
//	[4:4+4n) slot array: record offset uint16, record length uint16
//	[...:free) free space
//	[free:PageSize) record data, growing downward
type Page struct {
	Data [PageSize]byte
}

const (
	pageHdrSize  = 4
	slotSize     = 4
	maxRecordLen = PageSize - pageHdrSize - slotSize
)

// ErrPageFull reports that a record does not fit in the page's free space.
var ErrPageFull = errors.New("pages: page full")

// Reset initializes an empty slotted page.
func (p *Page) Reset() {
	p.Data = [PageSize]byte{}
	p.setFreeOff(PageSize)
}

func (p *Page) slotCount() int     { return int(binary.LittleEndian.Uint16(p.Data[0:2])) }
func (p *Page) setSlotCount(n int) { binary.LittleEndian.PutUint16(p.Data[0:2], uint16(n)) }
func (p *Page) freeOff() int       { return int(binary.LittleEndian.Uint16(p.Data[2:4])) }
func (p *Page) setFreeOff(off int) { binary.LittleEndian.PutUint16(p.Data[2:4], uint16(off)) }

func (p *Page) slot(i int) (off, length int) {
	base := pageHdrSize + i*slotSize
	return int(binary.LittleEndian.Uint16(p.Data[base : base+2])),
		int(binary.LittleEndian.Uint16(p.Data[base+2 : base+4]))
}

func (p *Page) setSlot(i, off, length int) {
	base := pageHdrSize + i*slotSize
	binary.LittleEndian.PutUint16(p.Data[base:base+2], uint16(off))
	binary.LittleEndian.PutUint16(p.Data[base+2:base+4], uint16(length))
}

// FreeSpace returns the bytes available for one more record (including its
// slot).
func (p *Page) FreeSpace() int {
	free := p.freeOff() - (pageHdrSize + p.slotCount()*slotSize) - slotSize
	if free < 0 {
		return 0
	}
	return free
}

// NumRecords returns the number of records stored in the page.
func (p *Page) NumRecords() int { return p.slotCount() }

// Append stores a record in the page and returns its slot number.
func (p *Page) Append(rec []byte) (int, error) {
	if len(rec) > maxRecordLen {
		return 0, fmt.Errorf("pages: record of %d bytes exceeds page capacity %d", len(rec), maxRecordLen)
	}
	if len(rec) > p.FreeSpace() {
		return 0, ErrPageFull
	}
	n := p.slotCount()
	off := p.freeOff() - len(rec)
	copy(p.Data[off:off+len(rec)], rec)
	p.setSlot(n, off, len(rec))
	p.setFreeOff(off)
	p.setSlotCount(n + 1)
	return n, nil
}

// Record returns the record in the given slot. The returned slice aliases
// the page buffer and is only valid while the page stays pinned.
func (p *Page) Record(slot int) ([]byte, error) {
	if slot < 0 || slot >= p.slotCount() {
		return nil, fmt.Errorf("pages: slot %d out of range [0,%d)", slot, p.slotCount())
	}
	off, length := p.slot(slot)
	if off < 0 || off+length > PageSize {
		return nil, fmt.Errorf("pages: corrupt slot %d (off=%d len=%d)", slot, off, length)
	}
	return p.Data[off : off+length], nil
}
