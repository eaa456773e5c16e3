package storage

import (
	"encoding/binary"
	"hash/crc32"
	"io"

	"probdb/internal/core"
	"probdb/internal/vfs"
)

// The previous snapshot format stored a table as a page file of 8 KiB
// slotted pages, each followed on disk by the CRC32C of its image, holding
// the same schema and tuple records one per slot. A page begins with its
// slot count (u16 LE) and free-space offset; slot i, at 4+4i, is the
// record's offset and length (u16 LE each). Such files are read once, here,
// and rewritten as snapshot streams by the next checkpoint.
const (
	heapPageSize = 8192
	heapDiskPage = heapPageSize + 4 // image + CRC32C trailer
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// LoadHeapFile reads a table from a page file of the previous snapshot
// format, checking each page's checksum and walking its slots in order.
// Damage returns an error wrapping ErrCorruptSnapshot.
func LoadHeapFile(fsys vfs.FS, path string, reg *core.Registry) (*core.Table, error) {
	return loadFile(fsys, path, reg, walkPages)
}

func walkPages(r io.Reader, reg *core.Registry) (*core.Table, error) {
	var page [heapDiskPage]byte
	var d *rowDecoder
	for id := 0; ; id++ {
		if _, err := io.ReadFull(r, page[:]); err == io.EOF {
			break
		} else if err != nil {
			return nil, corrupt("page %d: %v", id, err)
		}
		img := page[:heapPageSize]
		if sum := binary.LittleEndian.Uint32(page[heapPageSize:]); crc32.Checksum(img, castagnoli) != sum {
			return nil, corrupt("page %d fails its checksum", id)
		}
		nslots := int(binary.LittleEndian.Uint16(img))
		if 4+4*nslots > heapPageSize {
			return nil, corrupt("page %d: %d slots", id, nslots)
		}
		for s := 0; s < nslots; s++ {
			off := int(binary.LittleEndian.Uint16(img[4+4*s:]))
			n := int(binary.LittleEndian.Uint16(img[6+4*s:]))
			if off+n > heapPageSize {
				return nil, corrupt("page %d slot %d out of bounds", id, s)
			}
			rec := img[off : off+n]
			if d == nil {
				var err error
				if d, err = newRowDecoder(rec, reg); err != nil {
					return nil, err
				}
				continue
			}
			used, err := d.tuple(rec)
			if err != nil {
				return nil, err
			}
			if used != n {
				return nil, corrupt("page %d slot %d: %d trailing bytes", id, s, n-used)
			}
		}
	}
	if d == nil {
		return nil, corrupt("no schema record")
	}
	return d.t, nil
}
