package server

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"probdb/internal/core"
	"probdb/internal/query"
	"probdb/internal/txn"
	"probdb/internal/wal"
	"probdb/internal/wire"
)

// Session is one client's statement context on the engine: it carries the
// open transaction (if any) and serializes the connection's statements.
// Sessions are independent — each network connection holds one, and the
// engine itself owns a default session for embedded callers — so explicit
// transactions on one connection never block statements on another beyond
// the engine's own commit critical section.
//
// Transactions are snapshot-isolated with first-writer-wins conflict
// detection. BEGIN clones the catalog into a private overlay (copy-on-write
// table clones over the shared base-pdf registry — a slice header per
// table) and records every table's commit version. In-transaction
// INSERT/DELETE execute against the overlay (read-your-writes) and are
// buffered as SQL; SELECT reads the overlay. COMMIT re-validates the
// written tables' versions under the engine mutex — if another writer
// committed first the transaction aborts with txn.ConflictError — then
// appends all statements plus a commit marker to the WAL as one group-
// commit batch, re-executes them against the authoritative catalog (the
// version check guarantees the same outcome the overlay saw), and acks
// after the batch's fsync. ROLLBACK just drops the overlay.
type Session struct {
	e  *Engine
	mu sync.Mutex
	tx *sessionTxn
}

// sessionTxn is one open transaction.
type sessionTxn struct {
	id       uint64
	db       *query.DB         // private overlay catalog
	versions map[string]uint64 // commit versions observed at BEGIN
	stmts    []string          // buffered mutations, in execution order
	parsed   []query.Stmt
	written  map[string]bool
	affected int
	// aborted poisons the transaction after an in-transaction statement
	// error: a failed statement ends the transaction's right to commit, so
	// the only exits are ROLLBACK or a COMMIT that reports the abort and
	// rolls back.
	aborted error
}

// NewSession returns a fresh session. Call Close when the connection ends —
// it rolls back any transaction left open.
func (e *Engine) NewSession() *Session { return &Session{e: e} }

// Close rolls back an open transaction and retires the session.
func (s *Session) Close() {
	s.mu.Lock()
	s.tx = nil
	s.mu.Unlock()
}

// InTxn reports whether the session has an open transaction.
func (s *Session) InTxn() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tx != nil
}

// Execute runs one statement in this session's context and returns its
// whole outcome: ExecuteStream with a sink that gathers a SELECT's batches
// into the Result's table.
func (s *Session) Execute(sql string) (*wire.Result, error) {
	var tbl *wire.Table
	res, streamed, err := s.ExecuteStream(context.Background(), sql, func(hdr *core.Table, batch []*core.Tuple) error {
		if tbl == nil {
			tbl = &wire.Table{Name: hdr.Name, Cols: wire.ColumnsOf(hdr), Rows: make([]wire.Row, 0, len(batch))}
		}
		tbl.Rows = append(tbl.Rows, wire.RowsOf(hdr, batch)...)
		return nil
	})
	if err == nil && streamed {
		res.Table = tbl
	}
	return res, err
}

// ExecuteStream runs one statement and is the one place a session's
// statements are classified: CHECKPOINT/HEALTH, transaction control, SELECT,
// and everything else by whether a transaction is open. A plain SELECT's
// result batches stream to sink as the operator tree produces them — the
// first batch reaches the sink before the scan has finished, and the engine
// never materializes the result relation. It returns streamed=true for a
// plain SELECT, whose rows went through the sink; the Result then carries
// only the trailing message/affected-count/stats (its Table is nil). Every
// other statement — DDL, DML, aggregates, EXPLAIN, CHECKPOINT, and the
// transaction-control statements — never calls sink (streamed=false) and
// returns a full Result.
//
// A snapshot-routed SELECT (no referenced table has an index, no
// transaction) and every in-transaction SELECT stream without holding the
// engine mutex: a slow consumer does not block writers. Only the indexed
// route — a SELECT referencing a table with an index reads the live catalog,
// where the index structures are — still streams under the engine lock. ctx
// aborts the operator tree between batches; sink errors do the same and come
// back wrapped.
func (s *Session) ExecuteStream(ctx context.Context, sql string, sink func(hdr *core.Table, batch []*core.Tuple) error) (res *wire.Result, streamed bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if h := s.e.execHook; h != nil {
		h(sql)
	}
	if isCheckpointSQL(sql) {
		if s.tx != nil {
			return nil, false, fmt.Errorf("server: CHECKPOINT is not allowed inside a transaction")
		}
		res, err = s.e.execCheckpoint()
		return res, false, err
	}
	if isHealthSQL(sql) {
		res, err = s.e.execHealth()
		return res, false, err
	}
	stmt, err := query.Parse(sql)
	if err != nil {
		return nil, false, err
	}
	switch st := stmt.(type) {
	case query.Begin:
		res, err = s.beginLocked()
	case query.Commit:
		res, err = s.commitLocked()
	case query.Rollback:
		res, err = s.rollbackLocked()
	case query.SelectStmt:
		streamed = st.Agg == ""
		if s.tx != nil {
			res, err = s.selectInTxnLocked(ctx, sql, sink)
		} else {
			res, err = s.e.execSelectStream(ctx, sql, st, sink)
		}
	default:
		if s.tx != nil {
			res, err = s.execInTxnLocked(sql, stmt)
		} else {
			res, err = s.e.execParsed(sql, stmt)
		}
	}
	return res, streamed, err
}

// beginLocked opens a transaction: a catalog overlay plus the version
// vector the commit-time conflict check compares against.
func (s *Session) beginLocked() (*wire.Result, error) {
	if s.tx != nil {
		return nil, fmt.Errorf("server: a transaction is already in progress")
	}
	e := s.e
	start := time.Now()
	e.mu.Lock()
	odb := query.OpenWith(e.db.Registry())
	odb.SetParallelism(e.cfg.Parallelism)
	for _, name := range e.db.TableNames() {
		if t, ok := e.db.Table(name); ok {
			odb.Attach(t.Clone()) //nolint:errcheck // names are unique
		}
	}
	versions := make(map[string]uint64, len(e.ver))
	for k, v := range e.ver {
		versions[k] = v
	}
	id := e.nextTxn
	e.nextTxn++
	e.mu.Unlock()
	s.tx = &sessionTxn{id: id, db: odb, versions: versions, written: map[string]bool{}}
	return &wire.Result{
		Message: fmt.Sprintf("transaction %d started", id),
		InTxn:   true,
		Stats:   wire.Stats{LatencyMicros: uint64(time.Since(start).Microseconds())},
	}, nil
}

// rollbackLocked discards the overlay. Nothing else holds transaction
// state, so this never touches the engine.
func (s *Session) rollbackLocked() (*wire.Result, error) {
	if s.tx == nil {
		return nil, fmt.Errorf("server: no transaction in progress")
	}
	id := s.tx.id
	s.tx = nil
	return &wire.Result{Message: fmt.Sprintf("transaction %d rolled back", id)}, nil
}

func (s *Session) abortedErrLocked() error {
	return fmt.Errorf("server: transaction %d is aborted by an earlier error (%v); ROLLBACK to continue", s.tx.id, s.tx.aborted)
}

// txnResultLocked packages an in-transaction statement outcome (no engine
// counters: an overlay statement does no I/O and writes no WAL).
func (s *Session) txnResultLocked(start time.Time, qr *query.Result) *wire.Result {
	res := statementResult(start, qr)
	res.InTxn = true
	return res
}

// selectInTxnLocked runs a SELECT against the transaction's overlay.
func (s *Session) selectInTxnLocked(ctx context.Context, sql string, sink func(hdr *core.Table, batch []*core.Tuple) error) (*wire.Result, error) {
	if s.tx.aborted != nil {
		return nil, s.abortedErrLocked()
	}
	start := time.Now()
	qr, err := s.tx.db.ExecStream(ctx, sql, sink)
	if err != nil {
		return nil, err
	}
	res := s.txnResultLocked(start, qr)
	res.Stats.Rows = uint64(qr.Affected)
	return res, nil
}

// execInTxnLocked runs one non-SELECT statement inside the open
// transaction: catalog reads on the overlay, INSERT/DELETE on the overlay
// plus the commit buffer, and everything else rejected (DDL would need
// catalog-level undo).
func (s *Session) execInTxnLocked(sql string, stmt query.Stmt) (*wire.Result, error) {
	t := s.tx
	if t.aborted != nil {
		return nil, s.abortedErrLocked()
	}
	start := time.Now()
	var table string
	switch st := stmt.(type) {
	case query.Explain, query.ShowTables, query.Describe:
		qr, err := t.db.Exec(sql)
		if err != nil {
			return nil, err
		}
		return s.txnResultLocked(start, qr), nil
	case query.Insert:
		table = st.Table
	case query.Delete:
		table = st.Table
	default:
		return nil, fmt.Errorf("server: only INSERT, DELETE and SELECT are allowed inside a transaction (got %T); COMMIT or ROLLBACK first", stmt)
	}
	// Writes against quarantined tables must not reach the commit buffer:
	// their disk state is unknown.
	e := s.e
	e.mu.Lock()
	err := e.precheckLocked(stmt)
	e.mu.Unlock()
	if err != nil {
		return nil, err
	}
	qr, err := t.db.Exec(sql)
	if err != nil {
		// A failed statement ends the transaction's right to commit:
		// poison it, so COMMIT reports the error and rolls back.
		t.aborted = err
		return nil, fmt.Errorf("server: transaction %d aborted: %w", t.id, err)
	}
	t.stmts = append(t.stmts, sql)
	t.parsed = append(t.parsed, stmt)
	t.written[table] = true
	t.affected += qr.Affected
	return s.txnResultLocked(start, qr), nil
}

// commitLocked publishes the transaction. Under the engine mutex it
// validates the written tables' versions (first-writer-wins), enqueues all
// buffered statements plus the commit marker as ONE group-commit batch, and
// re-executes the statements against the authoritative catalog; visibility
// is immediate, but the client is acked only after the batch's fsync.
func (s *Session) commitLocked() (*wire.Result, error) {
	t := s.tx
	if t == nil {
		return nil, fmt.Errorf("server: no transaction in progress")
	}
	s.tx = nil
	if t.aborted != nil {
		return nil, fmt.Errorf("server: transaction %d was aborted by an earlier error (%v); rolled back", t.id, t.aborted)
	}
	e := s.e
	if len(t.stmts) == 0 {
		return &wire.Result{Message: fmt.Sprintf("transaction %d committed (read-only)", t.id)}, nil
	}

	e.mu.Lock()
	d := e.beginStatsLocked()
	if e.cfg.Dir != "" && e.broken != nil {
		err := fmt.Errorf("server: engine is read-only after a durability failure: %w", e.broken)
		e.mu.Unlock()
		return nil, err
	}
	if e.readOnly != nil {
		err := e.readOnly
		e.mu.Unlock()
		return nil, err
	}
	names := make([]string, 0, len(t.written))
	for n := range t.written {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		if e.ver[name] != t.versions[name] {
			e.conflicts.Add(1)
			e.mu.Unlock()
			return nil, &txn.ConflictError{Table: name}
		}
	}
	var tk *txn.Ticket
	if e.cfg.Dir != "" {
		recs := make([]wal.Record, 0, len(t.stmts)+1)
		for _, q := range t.stmts {
			recs = append(recs, wal.Record{Type: wal.TypeTxnStmt, Data: wal.EncodeTxn(t.id, q)})
		}
		recs = append(recs, wal.Record{Type: wal.TypeTxnCommit, Data: wal.EncodeTxn(t.id, "")})
		tk = e.gc.Enqueue(recs)
	}
	// Re-execute against the authoritative catalog. The version check
	// guarantees the written tables are exactly as the overlay saw them at
	// BEGIN, so these replays land the overlay's outcome. A failure here is
	// a bug, but it is handled the way recovery replay handles it — log,
	// keep going — so memory and a post-crash replay of this batch agree.
	var applyErr error
	for i, q := range t.stmts {
		if _, err := e.applyLocked(q, t.parsed[i]); err != nil {
			e.cfg.Logf("probserve: commit txn %d: statement %q failed unexpectedly: %v", t.id, q, err)
			if applyErr == nil {
				applyErr = err
			}
		}
	}
	e.verSeq++
	for _, n := range names {
		e.ver[n] = e.verSeq
	}
	e.snapStale = true
	if e.cfg.Dir != "" {
		e.maybeCheckpointLocked()
	}
	qr := &query.Result{
		Message:  fmt.Sprintf("transaction %d committed (%d statements)", t.id, len(t.stmts)),
		Affected: t.affected,
	}
	res := e.finishStatsLocked(d, qr)
	e.mu.Unlock()

	if tk != nil {
		ack, werr := tk.Wait()
		if werr != nil {
			e.latchBroken(werr)
			return nil, fmt.Errorf("server: transaction %d not durable: %w", t.id, werr)
		}
		res.Stats.LatencyMicros = uint64(time.Since(d.start).Microseconds())
		if ack.Led {
			res.Stats.WALFsyncs = 1
		}
		res.Stats.WALGroupSize = uint64(ack.GroupSize)
	}
	if applyErr != nil {
		return nil, fmt.Errorf("server: transaction %d commit applied with errors: %w", t.id, applyErr)
	}
	return res, nil
}
