package wal

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"probdb/internal/vfs"
)

// readAll feeds recs through r and returns the statements of the units they
// complete, in order, plus every error the reader reported.
func readAll(r *Reader, recs []Record) (applied []string, errs []error) {
	for _, rec := range recs {
		unit, err := r.Next(rec)
		if err != nil {
			errs = append(errs, err)
		}
		applied = append(applied, unit...)
	}
	return applied, errs
}

func encodeStream(recs []Record) []byte {
	var b []byte
	for _, r := range recs {
		b = encodeRecord(b, r.Type, r.Data)
	}
	return b
}

// TestEncodeUnitBytes pins the unit encoder to the record format: an
// autocommit statement is its verbatim TypeStatement record, a transaction
// is uvarint-ID-prefixed TypeTxnStmt records closed by an ID-only marker.
func TestEncodeUnitBytes(t *testing.T) {
	auto := EncodeUnit(0, []string{"INSERT INTO t (k) VALUES (1)"})
	if want := []Record{{Type: TypeStatement, Data: []byte("INSERT INTO t (k) VALUES (1)")}}; !reflect.DeepEqual(auto, want) {
		t.Fatalf("autocommit unit = %+v, want %+v", auto, want)
	}
	txn := EncodeUnit(300, []string{"a", "bb"})
	want := []Record{
		{Type: TypeTxnStmt, Data: []byte{0xac, 0x02, 'a'}},
		{Type: TypeTxnStmt, Data: []byte{0xac, 0x02, 'b', 'b'}},
		{Type: TypeTxnCommit, Data: []byte{0xac, 0x02}},
	}
	if !reflect.DeepEqual(txn, want) {
		t.Fatalf("transaction unit = %+v, want %+v", txn, want)
	}
	got := encodeStream(txn)
	var exp []byte
	for _, r := range want {
		exp = append(exp, testEncodeRecord(r.Type, r.Data)...)
	}
	if !bytes.Equal(got, exp) {
		t.Fatalf("transaction unit bytes differ:\n got %x\nwant %x", got, exp)
	}
}

// TestReaderSplitAtEveryBoundary: a stream interleaving autocommit units
// and two transactions applies the same statements in the same order
// however it is split into fetches — the reader carries the open unit
// across the split, and a partial unit applies nothing until its marker.
func TestReaderSplitAtEveryBoundary(t *testing.T) {
	var recs []Record
	recs = append(recs, EncodeUnit(0, []string{"a1"})...)
	recs = append(recs, EncodeUnit(1, []string{"t1.1", "t1.2", "t1.3"})...)
	recs = append(recs, EncodeUnit(0, []string{"a2", "a3"})...)
	recs = append(recs, EncodeUnit(2, []string{"t2.1"})...)
	recs = append(recs, EncodeUnit(0, []string{"a4"})...)
	want := []string{"a1", "t1.1", "t1.2", "t1.3", "a2", "a3", "t2.1", "a4"}
	stream := encodeStream(recs)

	off := 0
	for k := 0; k <= len(recs); k++ {
		head, n := Decode(stream[:off])
		tail, m := Decode(stream[off:])
		if len(head) != k || n+m != int64(len(stream)) {
			t.Fatalf("split %d: decoded %d+%d records", k, len(head), len(tail))
		}
		var r Reader
		got, errs := readAll(&r, head)
		more, errs2 := readAll(&r, tail)
		got = append(got, more...)
		if len(errs)+len(errs2) != 0 || r.Discarded != 0 {
			t.Fatalf("split %d: errors %v, %d discarded", k, append(errs, errs2...), r.Discarded)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("split %d: applied %q, want %q", k, got, want)
		}
		if k < len(recs) {
			off += int(EncodedSize(len(recs[k].Data)))
		}
	}
}

// TestReaderDiscardsInterruptedUnit: a record that interrupts an open
// transaction — an autocommit statement, another transaction's statement
// or marker — discards it whole; the interrupting unit still applies.
func TestReaderDiscardsInterruptedUnit(t *testing.T) {
	recs := []Record{
		{Type: TypeTxnStmt, Data: EncodeTxn(1, "lost by statement")},
		{Type: TypeStatement, Data: []byte("s1")},
		{Type: TypeTxnStmt, Data: EncodeTxn(2, "lost by txn")},
		{Type: TypeTxnStmt, Data: EncodeTxn(3, "t3")},
		{Type: TypeTxnCommit, Data: EncodeTxn(3, "")},
		{Type: TypeTxnStmt, Data: EncodeTxn(4, "lost by marker")},
		{Type: TypeTxnCommit, Data: EncodeTxn(5, "")},
		{Type: TypeTxnCommit, Data: EncodeTxn(6, "")}, // no open unit: nothing to apply
		{Type: TypeStatement, Data: []byte("s2")},
	}
	var r Reader
	got, errs := readAll(&r, recs)
	if want := []string{"s1", "t3", "s2"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("applied %q, want %q", got, want)
	}
	if len(errs) != 0 {
		t.Fatalf("errors %v", errs)
	}
	if r.Discarded != 3 {
		t.Fatalf("discarded %d units, want 3", r.Discarded)
	}
}

// TestReaderReportsMalformedRecord: a transaction record whose payload does
// not decode is reported and nothing of its unit applies; the units around
// it do.
func TestReaderReportsMalformedRecord(t *testing.T) {
	recs := []Record{
		{Type: TypeStatement, Data: []byte("s1")},
		{Type: TypeTxnStmt, Data: EncodeTxn(1, "before")},
		{Type: TypeTxnStmt, Data: []byte{0xff}}, // truncated uvarint
		{Type: TypeTxnStmt, Data: EncodeTxn(1, "after")},
		{Type: TypeTxnCommit, Data: EncodeTxn(1, "")},
		{Type: TypeTxnStmt, Data: EncodeTxn(2, "t2")},
		{Type: TypeTxnCommit, Data: nil}, // malformed marker
		{Type: Type(9), Data: []byte("unknown")},
		{Type: TypeStatement, Data: []byte("s2")},
	}
	var r Reader
	got, errs := readAll(&r, recs)
	if want := []string{"s1", "s2"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("applied %q, want %q", got, want)
	}
	if len(errs) != 3 {
		t.Fatalf("reported %d errors, want 3: %v", len(errs), errs)
	}
	for _, err := range errs[:2] {
		if !strings.Contains(err.Error(), "malformed transaction record") {
			t.Fatalf("unexpected error %v", err)
		}
	}
	if r.Discarded != 2 {
		t.Fatalf("discarded %d units, want 2", r.Discarded)
	}
}

// TestOpenKeepsMidLogMarkerlessUnit: a marker-less unit followed by whole
// units (a log written before torn tail units were cut) is not a tail, so
// Open keeps every record; the reader applies only the whole units.
func TestOpenKeepsMidLogMarkerlessUnit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Create(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	recs = append(recs, EncodeUnit(0, []string{"s1"})...)
	recs = append(recs, Record{Type: TypeTxnStmt, Data: EncodeTxn(1, "torn")})
	recs = append(recs, EncodeUnit(0, []string{"s2"})...)
	recs = append(recs, EncodeUnit(2, []string{"t2"})...)
	for _, r := range recs {
		if err := l.Append(r.Type, r.Data); err != nil {
			t.Fatal(err)
		}
	}
	size := l.Size()
	l.Close()

	l2, got, err := Open(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if !reflect.DeepEqual(got, recs) || l2.Size() != size {
		t.Fatalf("Open kept %d records (%d bytes), want %d (%d bytes)", len(got), l2.Size(), len(recs), size)
	}
	if n, err := StreamSize(vfs.OS, path); err != nil || n != size-int64(headerSize) {
		t.Fatalf("StreamSize = %d, %v; want %d", n, err, size-int64(headerSize))
	}
	var r Reader
	applied, errs := readAll(&r, got)
	if want := []string{"s1", "s2", "t2"}; !reflect.DeepEqual(applied, want) || len(errs) != 0 {
		t.Fatalf("applied %q (errors %v), want %q", applied, errs, want)
	}
	if r.Discarded != 1 {
		t.Fatalf("discarded %d units, want 1", r.Discarded)
	}
}

// TestOpenCutsTrailingUnit: a transaction whose marker never landed is cut
// from the tail by Open and excluded by StreamSize, so appends resume right
// after the last whole unit.
func TestOpenCutsTrailingUnit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Create(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch(EncodeUnit(0, []string{"s1"})); err != nil {
		t.Fatal(err)
	}
	whole := l.Size()
	for i := 0; i < 2; i++ {
		if err := l.Append(TypeTxnStmt, EncodeTxn(7, fmt.Sprintf("torn %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	if n, err := StreamSize(vfs.OS, path); err != nil || n != whole-int64(headerSize) {
		t.Fatalf("StreamSize = %d, %v; want %d", n, err, whole-int64(headerSize))
	}
	l2, recs, err := Open(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || l2.Size() != whole {
		t.Fatalf("Open kept %d records, size %d; want 1 record, size %d", len(recs), l2.Size(), whole)
	}
	if err := l2.AppendBatch(EncodeUnit(8, []string{"t8"})); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	_, recs, err = Open(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	var r Reader
	if applied, _ := readAll(&r, recs); !reflect.DeepEqual(applied, []string{"s1", "t8"}) || r.Discarded != 0 {
		t.Fatalf("applied %q with %d discarded, want [s1 t8]", applied, r.Discarded)
	}
}
