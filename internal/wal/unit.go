package wal

import (
	"fmt"

	"probdb/internal/vfs"
)

// A commit unit is what one acknowledgement covers: an autocommit
// statement's TypeStatement record, or a transaction's TypeTxnStmt records
// and its TypeTxnCommit marker. A unit is enqueued as one group-commit
// batch, and nothing is appended after a failed flush, so a torn unit can
// only be the tail, which Open and StreamSize cut: a log holds whole units.

// EncodeUnit returns the records of one commit unit. Transaction IDs start
// at 1; txnID 0 means autocommit, and each of stmts becomes its own
// TypeStatement unit. A transaction's statements become TypeTxnStmt
// records closed by one TypeTxnCommit marker.
func EncodeUnit(txnID uint64, stmts []string) []Record {
	if txnID == 0 {
		recs := make([]Record, len(stmts))
		for i, s := range stmts {
			recs[i] = Record{Type: TypeStatement, Data: []byte(s)}
		}
		return recs
	}
	recs := make([]Record, 0, len(stmts)+1)
	for _, s := range stmts {
		recs = append(recs, Record{Type: TypeTxnStmt, Data: EncodeTxn(txnID, s)})
	}
	return append(recs, Record{Type: TypeTxnCommit, Data: EncodeTxn(txnID, "")})
}

// readUnits reads the log file f and returns the records of its whole
// commit units, their record-stream length, and the file's size. Damage
// ends the records (Decode); a trailing run of TypeTxnStmt records after
// them is a transaction whose marker never became durable, so the units end
// before it.
func readUnits(f vfs.File, path string) (recs []Record, stream, fileSize int64, err error) {
	st, err := f.Stat()
	if err != nil {
		return nil, 0, 0, err
	}
	raw := make([]byte, st.Size())
	if _, err := readFullAt(f, raw, 0); err != nil {
		return nil, 0, 0, fmt.Errorf("wal: read %s: %w", path, err)
	}
	if len(raw) < headerSize || string(raw[:headerSize]) != magic {
		return nil, 0, 0, fmt.Errorf("%w: %s is not a WAL file", ErrBadMagic, path)
	}
	recs, _ = Decode(raw[headerSize:])
	n, run := 0, int64(0)
	for i, r := range recs {
		run += EncodedSize(len(r.Data))
		if r.Type != TypeTxnStmt {
			n, stream = i+1, run
		}
	}
	return recs[:n], stream, st.Size(), nil
}

// Reader turns a record stream back into committed statements, one unit at
// a time. It holds at most one open unit: a transaction whose marker has not
// arrived yet. A record that interrupts it — an autocommit statement,
// another transaction's record or marker — discards it: only a log written
// before tail units were cut holds such a torn unit mid-log. The zero
// Reader is ready to use.
type Reader struct {
	id      uint64
	open    bool
	damaged bool // the open unit holds a malformed record: never applied
	stmts   []string
	// Discarded counts the interrupted or damaged units dropped so far.
	Discarded int
}

// Next consumes one record and returns the statements of the unit it
// completes, in order (nil while a transaction is still open). A record
// the reader cannot decode is reported as an error; nothing of its unit is
// applied.
func (r *Reader) Next(rec Record) ([]string, error) {
	switch rec.Type {
	case TypeStatement:
		r.drop()
		return []string{string(rec.Data)}, nil
	case TypeTxnStmt:
		id, sql, err := decodeTxn(rec.Data)
		switch {
		case r.damaged:
			return nil, err
		case err != nil:
			r.open, r.damaged = true, true
			return nil, err
		case r.open && id != r.id:
			r.drop()
		}
		r.open, r.id = true, id
		r.stmts = append(r.stmts, sql)
		return nil, nil
	case TypeTxnCommit:
		id, _, err := decodeTxn(rec.Data)
		if err != nil || !r.open || r.damaged || id != r.id {
			r.drop()
			return nil, err
		}
		unit := r.stmts
		r.open, r.stmts = false, nil
		return unit, nil
	default:
		return nil, fmt.Errorf("wal: unknown record type %d", rec.Type)
	}
}

// drop discards the open unit, if any.
func (r *Reader) drop() {
	if r.open {
		r.Discarded++
	}
	r.id, r.open, r.damaged, r.stmts = 0, false, false, nil
}
