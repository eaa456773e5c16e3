package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"probdb/internal/core"
	"probdb/internal/dist"
	"probdb/internal/vfs"
	"probdb/internal/wal"
)

// records splits a snapshot stream into its records.
func records(t *testing.T, raw []byte) []wal.Record {
	t.Helper()
	var out []wal.Record
	r := bytes.NewReader(raw[len(magic):])
	for {
		rec, _, err := wal.ReadRecord(r, nil)
		if err != nil {
			return out
		}
		out = append(out, rec)
	}
}

// TestRowRecordLimits: a row record closes at rowsPerRecord tuples, or at
// recordBytes when its rows are wide.
func TestRowRecordLimits(t *testing.T) {
	narrow := core.MustTable("n", core.MustSchema(core.Column{Name: "k", Type: core.IntType}), nil, nil)
	for i := 0; i < 600; i++ {
		if err := narrow.InsertValues([]core.Value{core.Int(int64(i))}, nil); err != nil {
			t.Fatal(err)
		}
	}
	wide := core.MustTable("w", core.MustSchema(core.Column{Name: "x", Type: core.FloatType, Uncertain: true}), nil, nil)
	for i := 0; i < 20; i++ {
		if err := wide.InsertValues([]core.Value{core.Null}, []dist.Dist{widePDF(600)}); err != nil {
			t.Fatal(err)
		}
	}
	rowSize := 1 + dist.EncodedSize(widePDF(600))
	perRecord := (recordBytes + rowSize - 1) / rowSize
	for _, c := range []struct {
		tbl  *core.Table
		want []int // rows per row record
	}{
		{narrow, []int{256, 256, 88}},
		{wide, []int{perRecord, perRecord, 20 - 2*perRecord}},
	} {
		raw := encode(t, c.tbl)
		recs := records(t, raw)
		if len(recs) != len(c.want)+2 {
			t.Fatalf("%s: %d records, want %d", c.tbl.Name, len(recs), len(c.want)+2)
		}
		for i, n := range c.want {
			if rec := recs[i+1]; rec.Type != recRows || c.tbl == wide && len(rec.Data) != n*rowSize {
				t.Errorf("%s: record %d holds %d bytes, want %d rows", c.tbl.Name, i+1, len(rec.Data), n)
			}
		}
		if _, err := decode(raw, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// heapRecords returns the slot records of a page file of the previous
// format, in order.
func heapRecords(t *testing.T, path string) [][]byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for p := 0; p+heapDiskPage <= len(raw); p += heapDiskPage {
		img := raw[p : p+heapPageSize]
		for s := 0; s < int(binary.LittleEndian.Uint16(img)); s++ {
			off := int(binary.LittleEndian.Uint16(img[4+4*s:]))
			n := int(binary.LittleEndian.Uint16(img[6+4*s:]))
			out = append(out, img[off:off+n])
		}
	}
	return out
}

// TestRecordBytesPinned: the page files in internal/server/testdata/v1 were
// written by the previous format's own codec. Each loads through the
// record decoder, re-encodes into a snapshot stream whose schema and tuple
// records are those page records byte for byte, and the fresh stream loads
// back through the same decoder.
func TestRecordBytesPinned(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "server", "testdata", "v1", "*.heap"))
	if err != nil || len(files) != 2 {
		t.Fatalf("fixture page files: %v (%v)", files, err)
	}
	for _, path := range files {
		tbl, err := LoadHeapFile(vfs.OS, path, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := heapRecords(t, path)
		raw := encode(t, tbl)
		recs := records(t, raw)
		if !bytes.Equal(recs[0].Data, want[0]) {
			t.Errorf("%s: schema record differs from the page file's", path)
		}
		var rows []byte
		for _, rec := range recs[1 : len(recs)-1] {
			rows = append(rows, rec.Data...)
		}
		if !bytes.Equal(rows, bytes.Join(want[1:], nil)) {
			t.Errorf("%s: tuple records differ from the page file's", path)
		}
		back, err := decode(raw, nil)
		if err != nil {
			t.Fatal(err)
		}
		if back.Len() != len(want)-1 || back.Len() == 0 {
			t.Errorf("%s: %d rows back, page file holds %d", path, back.Len(), len(want)-1)
		}
	}
}

// TestHeapFileRejectsDamage: a flipped byte anywhere in a page file fails
// its page's checksum, and a cut file is not a whole number of pages.
func TestHeapFileRejectsDamage(t *testing.T) {
	src := filepath.Join("..", "server", "testdata", "v1", "sensors.1.heap")
	good, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.heap")
	for _, b := range [][]byte{good[:len(good)-1], flip(good, 0), flip(good, 5000), flip(good, heapPageSize+2)} {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadHeapFile(vfs.OS, path, nil); !errors.Is(err, ErrCorruptSnapshot) {
			t.Errorf("damaged page file: %v, want ErrCorruptSnapshot", err)
		}
	}
}

func flip(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0xff
	return out
}

// reframe rewrites the records of a snapshot stream with fresh checksums,
// so a fuzzed input reaches the record decoders behind the CRC. Lengths
// are kept, clamped to the bytes left.
func reframe(b []byte) []byte {
	if len(b) < len(magic) {
		return b
	}
	out := append([]byte(nil), b[:len(magic)]...)
	for b = b[len(magic):]; len(b) >= 8; {
		n := int(binary.LittleEndian.Uint32(b))
		if n < 1 || n > len(b)-8 {
			n = len(b) - 8
		}
		if n < 1 {
			break
		}
		out = wal.AppendRecord(out, wal.Type(b[8]), b[9:8+n])
		b = b[8+n:]
	}
	return append(out, b...)
}

// FuzzLoadSnapshot: the snapshot reader never panics, refuses only with
// ErrCorruptSnapshot, and every input it accepts re-encodes to the same
// bytes. Each input is also read with its records' checksums recomputed.
// The seeds are small (the fixture's tables and an empty one), so the
// fuzzer's minimization of a new input stays short.
func FuzzLoadSnapshot(f *testing.F) {
	tables := []*core.Table{core.MustTable("e", core.MustSchema(core.Column{Name: "k", Type: core.IntType}), nil, nil)}
	for _, name := range []string{"sensors.1.heap", "obj.1.heap"} {
		tbl, err := LoadHeapFile(vfs.OS, filepath.Join("..", "server", "testdata", "v1", name), nil)
		if err != nil {
			f.Fatal(err)
		}
		tables = append(tables, tbl)
	}
	var buf bytes.Buffer
	for _, tbl := range tables {
		buf.Reset()
		if err := writeTable(&buf, tbl); err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte(nil), buf.Bytes()...))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, in := range [][]byte{b, reframe(b)} {
			tbl, err := readTable(bytes.NewReader(in), nil)
			if err != nil {
				if !errors.Is(err, ErrCorruptSnapshot) {
					t.Fatalf("refusal without ErrCorruptSnapshot: %v", err)
				}
				continue
			}
			var out bytes.Buffer
			if err := writeTable(&out, tbl); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), in) {
				t.Fatalf("accepted %d bytes re-encode to %d different ones", len(in), out.Len())
			}
		}
	})
}
