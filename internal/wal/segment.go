package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"

	"probdb/internal/vfs"
)

// This file is the read side of WAL shipping: a leader serving a replica's
// WALFetch needs record-aligned raw bytes out of its retained log files
// without disturbing the writer. Offsets here are *record-stream* offsets —
// byte 0 is the first record header, the file magic excluded — because that
// is the coordinate system of the replication LSN (stable across the
// file-level concerns of magic headers and generation boundaries).

// HeaderLen is the byte length of the file magic preceding the record
// stream: file offset = HeaderLen + record-stream offset. Exported so the
// shipping layer can convert between the two coordinate systems.
const HeaderLen = headerSize

// StreamLen returns the log's current record-stream length — Size() minus
// the file magic — which is this generation's contribution to the
// replication LSN once its appends are durable.
func (l *Log) StreamLen() int64 { return l.size - int64(headerSize) }

// StreamSize returns the intact record-stream length of the log file at
// path: the bytes of whole commit units of checksummed records after the
// magic header. For a cleanly rolled generation this is the file size minus
// the header; a torn tail (crash during the final append of a generation)
// simply ends the stream early, mirroring Open's truncation rule.
func StreamSize(fsys vfs.FS, path string) (int64, error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	_, stream, _, err := readUnits(f, path)
	return stream, err
}

// ReadSegment reads whole records from the log file at path, starting at
// record-stream offset from and never past limit — the caller's durability
// frontier, which is always record-aligned because appends advance it by
// whole batches. At most maxBytes are returned, except that the first
// record is always returned whole even if it alone exceeds maxBytes (so a
// tailing replica always makes progress). Every byte in [from, limit) is a
// durability promise, so any malformed header or checksum mismatch inside
// the window is reported as an error, never silently skipped: shipping
// corrupt history would replicate the corruption.
//
// An empty (nil) result means from == limit: nothing new.
func ReadSegment(fsys vfs.FS, path string, from, limit int64, maxBytes int) ([]byte, error) {
	if from < 0 || from > limit {
		return nil, fmt.Errorf("wal: segment window [%d, %d) invalid", from, limit)
	}
	if from == limit {
		return nil, nil
	}
	if maxBytes < 1 {
		maxBytes = 1
	}
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	end := from + int64(maxBytes)
	if end > limit {
		end = limit
	}
	buf := make([]byte, end-from)
	if _, err := readFullAt(f, buf, int64(headerSize)+from); err != nil {
		return nil, fmt.Errorf("wal: read segment %s@%d: %w", path, from, err)
	}
	n, rerr := alignedPrefix(buf, limit-from)
	if rerr != nil {
		return nil, fmt.Errorf("wal: %s@%d: %w", path, from, rerr)
	}
	if n > 0 {
		return buf[:n], nil
	}

	// The first record alone is larger than the window. Read its header
	// (re-reading: the window may have been shorter than a header) and then
	// the record whole.
	var hdr [recHdrSize]byte
	if limit-from < int64(recHdrSize) {
		return nil, fmt.Errorf("wal: %s@%d: %d bytes before limit cannot hold a record", path, from, limit-from)
	}
	if _, err := readFullAt(f, hdr[:], int64(headerSize)+from); err != nil {
		return nil, fmt.Errorf("wal: read segment %s@%d: %w", path, from, err)
	}
	recLen := binary.LittleEndian.Uint32(hdr[:4])
	if recLen < 1 || recLen > MaxRecord {
		return nil, fmt.Errorf("wal: %s@%d: bad record length %d", path, from, recLen)
	}
	whole := int64(recHdrSize) + int64(recLen)
	if from+whole > limit {
		return nil, fmt.Errorf("wal: %s@%d: record of %d bytes crosses the durability frontier %d", path, from, whole, limit)
	}
	buf = make([]byte, whole)
	if _, err := readFullAt(f, buf, int64(headerSize)+from); err != nil {
		return nil, fmt.Errorf("wal: read segment %s@%d: %w", path, from, err)
	}
	if crc32.Checksum(buf[recHdrSize:], castagnoli) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, fmt.Errorf("wal: %s@%d: record checksum mismatch", path, from)
	}
	return buf, nil
}

// alignedPrefix walks whole records fully contained in b and returns the
// length of that prefix. streamLeft is how many stream bytes remain before
// the caller's limit; a record that would extend past it, or a damaged
// header/checksum, is corruption inside the durable window and errors. A
// record that merely extends past b (but not the limit) ends the prefix
// cleanly — the next fetch picks it up.
func alignedPrefix(b []byte, streamLeft int64) (int, error) {
	off := 0
	for {
		if len(b)-off < recHdrSize {
			return off, nil
		}
		n := binary.LittleEndian.Uint32(b[off : off+4])
		if n < 1 || n > MaxRecord {
			return 0, fmt.Errorf("bad record length %d at stream offset +%d", n, off)
		}
		whole := recHdrSize + int(n)
		if int64(off+whole) > streamLeft {
			return 0, fmt.Errorf("record of %d bytes at stream offset +%d crosses the durability frontier", whole, off)
		}
		if off+whole > len(b) {
			return off, nil
		}
		sum := binary.LittleEndian.Uint32(b[off+4 : off+8])
		if crc32.Checksum(b[off+recHdrSize:off+whole], castagnoli) != sum {
			return 0, fmt.Errorf("record checksum mismatch at stream offset +%d", off)
		}
		off += whole
	}
}
