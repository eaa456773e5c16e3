// Package wal is the engine's write-ahead log: an append-only file of
// length-prefixed, CRC32C-checksummed records, fsync'd on every append. The
// engine enqueues each commit unit's records, applies the unit, and acks it
// once a group-commit flush has fsync'd it here, so a crash at any point
// leaves the log as the authoritative tail of history since the last
// checkpoint: on startup the engine replays every whole unit, and a torn
// tail — a record failing its checksum, or a unit lacking its commit
// marker — is truncated away rather than interpreted (unit.go).
//
// On-disk layout:
//
//	| 8-byte magic "probwal1" |
//	| u32 LE payload length | u32 LE CRC32C(payload) | payload | ...
//
// where payload is one type byte followed by the record data. The CRC uses
// the Castagnoli polynomial (the checksum iSCSI and ext4 use), matching the
// page checksums in internal/storage.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"probdb/internal/vfs"
)

// Type discriminates WAL record kinds.
type Type byte

const (
	// TypeStatement is one autocommit statement, logged verbatim: a whole
	// commit unit, enqueued, applied, and acked after the flush that fsyncs
	// it. Replay re-executes it against the reloaded catalog.
	TypeStatement Type = 1
	// TypeTxnStmt is one mutating statement of an explicit transaction:
	// a uvarint transaction ID followed by the SQL text. Replay applies
	// these only when the matching TypeTxnCommit record is seen — a
	// transaction whose commit record is missing or torn was never
	// acknowledged and is discarded whole.
	TypeTxnStmt Type = 2
	// TypeTxnCommit marks a transaction durable: a uvarint transaction ID
	// and nothing else. It is always appended in the same batch as the
	// transaction's TypeTxnStmt records, so a torn batch can only lose a
	// suffix — either the commit record survives (and so do all statements
	// before it) or the transaction vanishes atomically.
	TypeTxnCommit Type = 3
)

// Record is one decoded WAL record.
type Record struct {
	Type Type
	Data []byte
}

const (
	magic      = "probwal1"
	headerSize = len(magic)
	recHdrSize = 8 // u32 length + u32 crc
	// MaxRecord bounds one record's payload so a corrupt length prefix
	// cannot trigger an enormous allocation during replay.
	MaxRecord = 16 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrBroken reports that an earlier append failed in a way that left the
// log's tail state unknown; the log refuses further appends.
var ErrBroken = errors.New("wal: log broken by earlier write failure")

// ErrBadMagic reports a log file whose header is absent or torn. Because
// the magic is the first write to a fresh log and is fsync'd before Create
// returns — and no append is acknowledged until after that — a bad-magic
// log provably holds no committed records: the engine may recreate it.
var ErrBadMagic = errors.New("wal: bad magic")

// Log is an open write-ahead log positioned at its end.
type Log struct {
	f      vfs.File
	path   string
	size   int64 // bytes of durable, valid log (header + intact records)
	broken bool
}

// Create makes a fresh, empty log at path (truncating any previous file)
// and fsyncs it. The caller is responsible for fsyncing the directory if
// the file is new.
func Create(fsys vfs.FS, path string) (*Log, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: create %s: %w", path, err)
	}
	l := &Log{f: f, path: path, size: int64(headerSize)}
	if _, err := f.WriteAt([]byte(magic), 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: create %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: create %s: %w", path, err)
	}
	return l, nil
}

// Open reads an existing log, returning the records of its whole commit
// units in order. A torn tail — an incomplete header, a length past
// end-of-file, a checksum mismatch, or a trailing transaction without its
// commit marker — marks the end of history: everything from there on is
// truncated so subsequent appends extend a clean tail. Records after a
// damaged one are unreachable by construction (the log is strictly
// sequential), and a unit's records are written as one batch after which a
// failed flush appends nothing, so truncation never discards a unit that
// replay could have used.
func Open(fsys vfs.FS, path string) (*Log, []Record, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, err
	}
	recs, stream, fileSize, err := readUnits(f, path)
	l := &Log{f: f, path: path, size: int64(headerSize) + stream}
	if err == nil && l.size < fileSize {
		if err = f.Truncate(l.size); err != nil {
			err = fmt.Errorf("wal: truncate torn tail of %s: %w", path, err)
		} else {
			err = f.Sync()
		}
	}
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return l, recs, nil
}

// Decode parses a record stream (the bytes after the file magic) and
// returns the intact prefix's records plus its length in bytes. It never
// fails: damage simply ends the valid prefix.
func Decode(b []byte) (recs []Record, validLen int64) {
	off := 0
	for {
		if len(b)-off < recHdrSize {
			return recs, int64(off)
		}
		n := binary.LittleEndian.Uint32(b[off : off+4])
		sum := binary.LittleEndian.Uint32(b[off+4 : off+8])
		if n < 1 || n > MaxRecord || int(n) > len(b)-off-recHdrSize {
			return recs, int64(off)
		}
		payload := b[off+recHdrSize : off+recHdrSize+int(n)]
		if crc32.Checksum(payload, castagnoli) != sum {
			return recs, int64(off)
		}
		data := make([]byte, n-1)
		copy(data, payload[1:])
		recs = append(recs, Record{Type: Type(payload[0]), Data: data})
		off += recHdrSize + int(n)
	}
}

// encodeRecord appends the wire form of one record to buf.
func encodeRecord(buf []byte, t Type, data []byte) []byte {
	off := len(buf)
	buf = append(buf, make([]byte, recHdrSize)...)
	binary.LittleEndian.PutUint32(buf[off:off+4], uint32(1+len(data)))
	buf = append(buf, byte(t))
	buf = append(buf, data...)
	binary.LittleEndian.PutUint32(buf[off+4:off+8], crc32.Checksum(buf[off+recHdrSize:], castagnoli))
	return buf
}

// EncodedSize returns the on-disk size of one record with the given payload
// data length (header, type byte and data).
func EncodedSize(dataLen int) int64 { return int64(recHdrSize + 1 + dataLen) }

// Append encodes one record, writes it at the log's tail, and fsyncs. It
// returns only after the record is durable. On failure it truncates the
// tail back to the last durable record; if even that fails the log marks
// itself broken and refuses further appends (the engine must restart and
// recover).
func (l *Log) Append(t Type, data []byte) error {
	return l.AppendBatch([]Record{{Type: t, Data: data}})
}

// AppendBatch writes a group of records contiguously at the log's tail with
// ONE WriteAt and ONE fsync — the group-commit primitive. All records become
// durable together or, on a torn write, an intact prefix survives (each
// record is individually checksummed, so recovery keeps exactly the records
// whose bytes landed). Failure semantics match Append: the tail is rolled
// back to the last durable record, and an unconfirmable rollback latches the
// log broken.
func (l *Log) AppendBatch(recs []Record) error {
	if l.broken {
		return ErrBroken
	}
	if len(recs) == 0 {
		return nil
	}
	var buf []byte
	for _, r := range recs {
		if len(r.Data)+1 > MaxRecord {
			return fmt.Errorf("wal: record of %d bytes exceeds limit %d", len(r.Data), MaxRecord)
		}
		buf = encodeRecord(buf, r.Type, r.Data)
	}
	if _, err := l.f.WriteAt(buf, l.size); err != nil {
		l.rollback()
		return fmt.Errorf("wal: append: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		l.rollback()
		return fmt.Errorf("wal: append sync: %w", err)
	}
	l.size += int64(len(buf))
	return nil
}

// rollback tries to cut a possibly half-written record back off the tail.
// The record's checksum makes this belt-and-braces: even if the truncate
// fails, recovery will reject the damaged tail. But a *complete* record
// whose statement was reported failed must not survive, hence the broken
// latch when truncation cannot be confirmed.
func (l *Log) rollback() {
	if err := l.f.Truncate(l.size); err != nil {
		l.broken = true
		return
	}
	if err := l.f.Sync(); err != nil {
		l.broken = true
	}
}

// EncodeTxn builds the payload of a TypeTxnStmt or TypeTxnCommit record:
// the transaction ID as a uvarint followed by the statement text (empty for
// commit markers).
func EncodeTxn(txnID uint64, sql string) []byte {
	buf := binary.AppendUvarint(nil, txnID)
	return append(buf, sql...)
}

// decodeTxn parses a TypeTxnStmt/TypeTxnCommit payload.
func decodeTxn(data []byte) (txnID uint64, sql string, err error) {
	id, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, "", fmt.Errorf("wal: malformed transaction record")
	}
	return id, string(data[n:]), nil
}

// Size returns the valid log length in bytes (header included) — the
// engine's auto-checkpoint trigger reads this.
func (l *Log) Size() int64 { return l.size }

// Empty reports whether the log holds no records.
func (l *Log) Empty() bool { return l.size == int64(headerSize) }

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// Close closes the log file.
func (l *Log) Close() error { return l.f.Close() }

func readFullAt(f vfs.File, p []byte, off int64) (int, error) {
	n := 0
	for n < len(p) {
		m, err := f.ReadAt(p[n:], off+int64(n))
		n += m
		if err != nil {
			if err == io.EOF && n == len(p) {
				return n, nil
			}
			return n, err
		}
	}
	return n, nil
}
