package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"probdb/internal/vfs"
)

// TestAppendBatchRoundTrip: a batch lands as ordinary records — one write,
// one fsync, but on reopen indistinguishable from individual appends.
func TestAppendBatchRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Create(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	batch := []Record{
		{Type: TypeTxnStmt, Data: EncodeTxn(7, "INSERT INTO t VALUES (1)")},
		{Type: TypeTxnStmt, Data: EncodeTxn(7, "INSERT INTO t VALUES (2)")},
		{Type: TypeTxnCommit, Data: EncodeTxn(7, "")},
		{Type: TypeStatement, Data: []byte("INSERT INTO u VALUES (3)")},
	}
	if err := l.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	l.Close()

	_, recs, err := Open(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(batch) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(batch))
	}
	for i, r := range recs {
		if r.Type != batch[i].Type || !bytes.Equal(r.Data, batch[i].Data) {
			t.Fatalf("record %d: type %d data %q", i, r.Type, r.Data)
		}
	}
}

// TestAppendBatchTornPrefix: a crash can tear a transaction's batch at any
// byte. Reopen must recover the transaction whole or not at all: every cut
// short of the full batch leaves zero records — never a record prefix of
// the unit, whose commit marker is the part a tear loses first.
func TestAppendBatchTornPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Create(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	var stmts []string
	for i := 0; i < 4; i++ {
		stmts = append(stmts, fmt.Sprintf("stmt %d", i))
	}
	batch := EncodeUnit(1, stmts)
	if err := l.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	full := l.Size()
	l.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for cut := int64(headerSize); cut <= full; cut++ {
		torn := filepath.Join(t.TempDir(), "wal.log")
		if err := os.WriteFile(torn, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, recs, err := Open(vfs.OS, torn)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		want := 0
		if cut == full {
			want = len(batch)
		}
		if len(recs) != want {
			t.Fatalf("cut=%d: %d records, want %d", cut, len(recs), want)
		}
		if cut < full && l2.Size() != int64(headerSize) {
			t.Fatalf("cut=%d: log kept %d bytes of a torn unit", cut, l2.Size()-int64(headerSize))
		}
		for i, r := range recs {
			if r.Type != batch[i].Type || !bytes.Equal(r.Data, batch[i].Data) {
				t.Fatalf("cut=%d: record %d mismatch", cut, i)
			}
		}
		l2.Close()
	}
}

// TestEncodeDecodeTxn round-trips transaction framing and rejects garbage.
func TestEncodeDecodeTxn(t *testing.T) {
	for _, id := range []uint64{0, 1, 127, 128, 1 << 40} {
		for _, sql := range []string{"", "INSERT INTO t VALUES (1)"} {
			id2, sql2, err := decodeTxn(EncodeTxn(id, sql))
			if err != nil || id2 != id || sql2 != sql {
				t.Fatalf("roundtrip(%d, %q) = (%d, %q, %v)", id, sql, id2, sql2, err)
			}
		}
	}
	if _, _, err := decodeTxn(nil); err == nil {
		t.Fatal("decoded an empty transaction record")
	}
	if _, _, err := decodeTxn([]byte{0xff}); err == nil {
		t.Fatal("decoded a truncated uvarint")
	}
}
