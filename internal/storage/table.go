// Package storage persists base tables as checkpoint snapshots and loads
// them back: the bridge between the model layer (internal/core) and the
// files of a data directory. A snapshot is written once and read once, both
// sequentially, so it is one stream of checksummed records:
//
//	| 8-byte magic "probsnp1" |
//	| schema record | row record | ... | row record | end record |
//
// Every record is framed as a write-ahead-log record (wal.AppendRecord). The
// schema record holds the table's name, columns and dependency sets; a row
// record holds up to rowsPerRecord tuple records back to back, fewer once
// it passes recordBytes; the end record holds the row count. A tuple record
// is a format byte, the certain values (core.AppendValue) and one pdf per
// dependency set in the dist wire format — so a symbolic Gaussian costs 17
// bytes on disk, the representation economics the paper's Fig. 5 builds on.
//
// Persistence covers *base* tables: derived tables (with phantom attributes
// and cross-table histories) are recomputed, not stored, and SaveTable
// rejects them.
package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"probdb/internal/core"
	"probdb/internal/dist"
	"probdb/internal/vfs"
	"probdb/internal/wal"
)

// ErrCorruptSnapshot reports a snapshot whose bytes do not decode: a bad
// magic, a record failing its checksum, a missing end record, a row count
// that disagrees with the rows, trailing bytes, or a record that is not in
// the writer's canonical form. Load errors wrap it (errors.Is), so the
// engine can quarantine the table instead of dying.
var ErrCorruptSnapshot = errors.New("storage: corrupt snapshot")

const (
	magic = "probsnp1"
	// formatVersion leads every schema and tuple record.
	formatVersion = 1
	// Snapshot record types, in the record framing's type byte.
	recSchema wal.Type = 1
	recRows   wal.Type = 2
	recEnd    wal.Type = 3
	// A row record is closed after rowsPerRecord tuples, or as soon as it
	// reaches recordBytes, whichever comes first.
	rowsPerRecord = 256
	recordBytes   = 64 << 10
)

// SaveTable writes t as a snapshot file at path on fsys, replacing any file
// there, and makes it durable: create, write, fsync, close.
func SaveTable(fsys vfs.FS, path string, t *core.Table) error {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("storage: create %s: %w", path, err)
	}
	err = writeTable(io.NewOffsetWriter(f, 0), t)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeTable writes t to w as one snapshot stream, one write per row
// record.
func writeTable(w io.Writer, t *core.Table) error {
	if ph := t.PhantomAttrs(); len(ph) > 0 {
		return fmt.Errorf("storage: cannot persist derived table with phantom attributes %v", ph)
	}
	buf := wal.AppendRecord([]byte(magic), recSchema, encodeSchema(t))
	deps := t.DepSets()
	locs := t.Locators()
	var rows []byte
	n := 0
	flush := func() error {
		buf = wal.AppendRecord(buf, recRows, rows)
		_, err := w.Write(buf)
		buf, rows, n = buf[:0], rows[:0], 0
		return err
	}
	for _, tup := range t.Tuples() {
		rows = append(rows, formatVersion)
		for _, l := range locs {
			if !l.Uncertain() {
				rows = core.AppendValue(rows, l.Value(tup))
			}
		}
		for i := range deps {
			rows = dist.AppendEncode(rows, t.DepDist(tup, i))
		}
		if n++; n == rowsPerRecord || len(rows) >= recordBytes {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if n > 0 {
		if err := flush(); err != nil {
			return err
		}
	}
	buf = wal.AppendRecord(buf, recEnd, binary.AppendUvarint(nil, uint64(t.Len())))
	_, err := w.Write(buf)
	return err
}

// LoadTable reads the snapshot file at path on fsys. The loaded pdfs are
// re-registered as fresh base pdfs in reg (pass nil for a new registry):
// on-disk tables are base tables, so histories restart from them
// (Definition 2).
func LoadTable(fsys vfs.FS, path string, reg *core.Registry) (*core.Table, error) {
	return loadFile(fsys, path, reg, readTable)
}

// loadFile reads one table from the file at path on fsys with read.
func loadFile(fsys vfs.FS, path string, reg *core.Registry, read func(io.Reader, *core.Registry) (*core.Table, error)) (*core.Table, error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close() //nolint:errcheck // only read
	t, err := read(io.NewSectionReader(f, 0, math.MaxInt64), reg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// readTable reads one snapshot stream from r, which must end with it. It
// accepts only what writeTable writes: any input it accepts re-encodes to
// the same bytes.
func readTable(r io.Reader, reg *core.Registry) (*core.Table, error) {
	var head [len(magic)]byte
	if _, err := io.ReadFull(r, head[:]); err != nil || string(head[:]) != magic {
		return nil, corrupt("bad magic")
	}
	rec, buf, err := wal.ReadRecord(r, nil)
	if err != nil {
		return nil, corrupt("schema record: %v", err)
	}
	if rec.Type != recSchema {
		return nil, corrupt("record type %d where the schema belongs", rec.Type)
	}
	d, err := newRowDecoder(rec.Data, reg)
	if err != nil {
		return nil, err
	}
	rows, short := 0, false
	for {
		rec, buf, err = wal.ReadRecord(r, buf)
		if err == io.EOF {
			return nil, corrupt("no end record after %d rows", rows)
		}
		if err != nil {
			return nil, corrupt("after %d rows: %v", rows, err)
		}
		switch rec.Type {
		case recRows:
			// Only the last row record may stop short of the writer's limits.
			if short {
				return nil, corrupt("short row record before row %d", rows)
			}
			n := 0
			for off := 0; off < len(rec.Data); n++ {
				// The writer closes a record at either limit.
				if n == rowsPerRecord || n > 0 && off >= recordBytes {
					return nil, corrupt("row record past its limits at row %d", rows+n)
				}
				used, err := d.tuple(rec.Data[off:])
				if err != nil {
					return nil, err
				}
				off += used
			}
			if n == 0 {
				return nil, corrupt("empty row record after row %d", rows)
			}
			rows += n
			short = n < rowsPerRecord && len(rec.Data) < recordBytes
		case recEnd:
			if !bytes.Equal(rec.Data, binary.AppendUvarint(nil, uint64(rows))) {
				return nil, corrupt("end record does not count the stream's %d rows", rows)
			}
			if n, _ := r.Read(head[:1]); n != 0 {
				return nil, corrupt("trailing bytes after the end record")
			}
			return d.t, nil
		default:
			return nil, corrupt("unknown record type %d after row %d", rec.Type, rows)
		}
	}
}

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorruptSnapshot, fmt.Sprintf(format, args...))
}

// rowDecoder turns a table's schema record and tuple records back into the
// table. It is the one record decoder: the snapshot stream and the page
// files of the previous format (heapfile.go) both feed it.
type rowDecoder struct {
	t  *core.Table
	at []int // schema offset of each certain column, in record order
	// One row layout serves every record: InsertValues copies the values
	// and keeps only the pdfs, so both slices are refilled, not
	// reallocated.
	certain []core.Value
	pdfs    []dist.Dist
	enc     []byte // the decoded row re-encoded, to hold records canonical
}

func newRowDecoder(rec []byte, reg *core.Registry) (*rowDecoder, error) {
	t, err := decodeSchema(rec, reg)
	if err != nil {
		return nil, corrupt("schema: %v", err)
	}
	if !bytes.Equal(encodeSchema(t), rec) {
		return nil, corrupt("schema record not in canonical form")
	}
	d := &rowDecoder{t: t, certain: make([]core.Value, t.Schema().Len()), pdfs: make([]dist.Dist, len(t.DepSets()))}
	for i, c := range t.Schema().Columns() {
		if !c.Uncertain {
			d.at = append(d.at, i)
		}
	}
	return d, nil
}

// tuple decodes the tuple record at the head of rec into the table and
// returns its length.
func (d *rowDecoder) tuple(rec []byte) (int, error) {
	if len(rec) < 1 || rec[0] != formatVersion {
		return 0, corrupt("bad tuple record version")
	}
	off := 1
	d.enc = append(d.enc[:0], formatVersion)
	for _, at := range d.at {
		v, n, err := core.DecodeValue(rec[off:], true)
		if err != nil {
			return 0, corrupt("tuple value: %v", err)
		}
		off += n
		d.certain[at] = v
		d.enc = core.AppendValue(d.enc, v)
	}
	for i := range d.pdfs {
		p, n, err := dist.Decode(rec[off:])
		if err != nil {
			return 0, corrupt("tuple pdf: %v", err)
		}
		off += n
		d.pdfs[i] = p
		d.enc = dist.AppendEncode(d.enc, p)
	}
	if !bytes.Equal(d.enc, rec[:off]) {
		return 0, corrupt("tuple record not in canonical form")
	}
	if err := d.t.InsertValues(d.certain, d.pdfs); err != nil {
		return 0, corrupt("%v", err)
	}
	return off, nil
}

func encodeSchema(t *core.Table) []byte {
	buf := []byte{formatVersion}
	buf = core.AppendString(buf, t.Name)
	buf = core.AppendColumns(buf, t.Schema().Columns())
	deps := t.DepSets()
	buf = binary.AppendUvarint(buf, uint64(len(deps)))
	for _, set := range deps {
		buf = binary.AppendUvarint(buf, uint64(len(set)))
		for _, a := range set {
			buf = core.AppendString(buf, a)
		}
	}
	return buf
}

// maxCount bounds the column, dependency-set and set-size counts of a
// schema record.
const maxCount = 1 << 16

func decodeSchema(rec []byte, reg *core.Registry) (*core.Table, error) {
	if len(rec) < 1 || rec[0] != formatVersion {
		return nil, fmt.Errorf("bad schema record version")
	}
	off := 1
	name, n, err := core.DecodeString(rec[off:])
	if err != nil {
		return nil, err
	}
	off += n
	cols, n, err := core.DecodeColumns(rec[off:], maxCount)
	if err != nil {
		return nil, err
	}
	off += n
	count := func() (int, error) {
		v, n := binary.Uvarint(rec[off:])
		if n <= 0 || v > maxCount {
			return 0, fmt.Errorf("bad dependency count")
		}
		off += n
		return int(v), nil
	}
	ndeps, err := count()
	if err != nil {
		return nil, err
	}
	deps := make([][]string, ndeps)
	for i := range deps {
		na, err := count()
		if err != nil {
			return nil, err
		}
		deps[i] = make([]string, na)
		for j := range deps[i] {
			if deps[i][j], n, err = core.DecodeString(rec[off:]); err != nil {
				return nil, err
			}
			off += n
		}
	}
	schema, err := core.NewSchema(cols)
	if err != nil {
		return nil, err
	}
	return core.NewTable(name, schema, deps, reg)
}
