// Package server is the network layer over the probabilistic engine: a
// wire.Listener speaking the internal/wire protocol, one session goroutine
// per connection that executes its own statements under a fixed number of
// execution slots, with admission control and per-query timeouts —
// the missing piece between the paper's embedded engine and a DBMS-shaped
// deployment serving many clients.
package server

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"sync/atomic"

	"probdb/internal/core"
	"probdb/internal/govern"
	"probdb/internal/query"
	"probdb/internal/txn"
	"probdb/internal/vfs"
	"probdb/internal/wal"
	"probdb/internal/wire"
)

// QuarantinedTableError is the typed refusal for any statement — live,
// replayed, or routed — that touches a table quarantined after corruption.
// WAL replay collects these in Engine.ReplayErrors instead of silently
// degrading to a generic catalog miss.
type QuarantinedTableError struct {
	Table string
	Cause error
}

func (e *QuarantinedTableError) Error() string {
	return fmt.Sprintf("server: table %q is quarantined after corruption (%v); DROP it to discard", e.Table, e.Cause)
}

func (e *QuarantinedTableError) Unwrap() error { return e.Cause }

// snapExt is the filename suffix of one table's snapshot file in the data
// dir; heapExt is the page file of the previous snapshot format, which
// recovery still reads (storage.LoadHeapFile) and its checkpoint replaces.
const (
	snapExt = ".snap"
	heapExt = ".heap"
)

// walFile names the write-ahead log belonging to checkpoint generation gen.
// The generation is baked into the name so a log can never be mistaken for
// the tail of a different checkpoint's history: after a crash anywhere in
// the checkpoint protocol, the manifest's generation selects exactly the
// log whose records are not yet folded into the snapshots.
func walFile(gen uint64) string { return fmt.Sprintf("wal.%d.log", gen) }

// quarantined is the health record of a table whose snapshot file failed to
// load at recovery — a checksum mismatch or any other load error. The table
// stays out of the catalog but its file and manifest entry are kept
// (evidence, and a possible manual salvage); only DROP TABLE discards it.
type quarantined struct {
	file string
	err  error
}

// EngineConfig tunes an Engine. Zero values take the documented defaults.
type EngineConfig struct {
	// Dir is the data directory; empty means an ephemeral in-memory engine.
	Dir string
	// CheckpointBytes auto-checkpoints when the WAL grows past this many
	// bytes. Default 1 MiB; negative disables auto-checkpointing.
	CheckpointBytes int64
	// FS is the filesystem the persistence path runs on. Default the real
	// OS; tests substitute a fault-injecting implementation.
	FS vfs.FS
	// Budget, when set, is the server-wide memory budget: query budgets
	// created by the server parent into it.
	// Nil disables accounting entirely — a no-op engine, byte-identical
	// results.
	Budget *govern.Budget
	// ShipWAL retains every WAL generation (checkpoints stop deleting rolled
	// logs) and serves them to replicas through FetchWAL. The replication LSN
	// is a byte offset into the concatenated record streams of generations
	// 0..current, so shipping must be enabled from the data directory's first
	// boot: opening a directory whose older generations were already deleted
	// fails rather than shipping a history with holes.
	ShipWAL bool
	// Logf, when set, receives recovery and checkpoint lifecycle messages.
	Logf func(format string, args ...any)
}

func (c *EngineConfig) fill() {
	if c.CheckpointBytes == 0 {
		c.CheckpointBytes = 1 << 20
	}
	if c.FS == nil {
		c.FS = vfs.OS
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// Engine executes statements for the server: an authoritative in-memory
// catalog (query.DB) persisted under a data directory with full crash
// safety. Every write is one commit unit (publish): under the engine mutex
// it is enqueued to a checksummed write-ahead log and applied, and it is
// acknowledged only after a group-commit flush has fsync'd it. Snapshot
// files hold checkpointed tables and are replaced atomically (fresh
// generation-named file, then an fsync'd manifest rename), never modified
// in place. Recovery therefore reduces to: load the snapshots the manifest
// names, replay the WAL's whole units on top, and checkpoint — a restart
// after a crash at any point converges to exactly the committed statements.
// Snapshot records carry CRC32C checksums; a snapshot found corrupt at load
// quarantines its table instead of killing the server.
//
// Snapshot files are touched only by recovery (one sequential load each)
// and by checkpoints (one sequential write each); the engine holds none
// open in between, and a running server never reads one. SELECTs read
// memory by one route: planned under the engine mutex against frozen copies
// of the tables (index probes included), then streamed with no lock held
// (see execSelectStream).
//
// With an empty data dir path the engine is ephemeral: nothing is logged or
// checkpointed.
type Engine struct {
	mu  sync.Mutex
	cfg EngineConfig
	db  *query.DB

	tables     map[string]string // table name → its snapshot's file name in the manifest
	dirty      map[string]bool   // tables whose memory state is ahead of disk
	quarantine map[string]*quarantined
	wal        *wal.Log
	gen        uint64
	// broken latches a checkpoint failure past the commit point (the engine
	// can no longer guarantee write durability); mutations are refused
	// until a restart recovers.
	broken error
	// readOnly is the *declared* read-only mode — an operator- or
	// watchdog-imposed state (disk space below threshold) that, unlike
	// broken, is expected to clear without a restart. Writes are refused
	// with a typed, retryable *ReadOnlyError naming the reason; reads
	// proceed normally.
	readOnly *ReadOnlyError
	// bud is the server-wide memory budget (nil = accounting disabled).
	bud *govern.Budget

	// execHook, when non-nil (tests), runs at the top of every Execute —
	// the seam fault and panic injection use.
	execHook func(sql string)

	// gc batches WAL appends from concurrent sessions into shared fsyncs
	// (nil on ephemeral engines). Mutations enqueue under e.mu — so log
	// order equals apply order — and wait for durability after releasing it.
	gc *txn.GroupCommitter

	// ver is the per-table commit version: verSeq advances on every
	// committed unit and stamps the tables it wrote (stampLocked). A
	// transaction records these at BEGIN and COMMIT compares them for the
	// tables it wrote — first-writer-wins conflict detection in O(written
	// tables).
	ver    map[string]uint64
	verSeq uint64
	// nextTxn allocates transaction IDs, from 1 (0 is an autocommit unit in
	// the log). Replay never matches units by ID across the log, so IDs may
	// repeat after a restart.
	nextTxn uint64
	// conflicts counts first-writer-wins aborts engine-wide.
	conflicts atomic.Uint64

	// replayErrs collects the typed per-record errors recovery chose to
	// skip past (e.g. WAL records for quarantined tables).
	replayErrs []error

	// chain lists the rolled (immutable) WAL generations retained for
	// shipping, in generation order; chainBase is the sum of their stream
	// lengths — the LSN at which the current generation's stream begins.
	// Only populated when cfg.ShipWAL is set.
	chain     []shipGen
	chainBase int64

	// sess is the engine-owned default session: Execute/ExecuteStream
	// delegate to it, so tests and embedded callers get BEGIN/COMMIT for
	// free while network connections hold their own Session.
	sess *Session
}

// OpenEngine creates an engine over cfg.Dir, recovering any previously
// persisted state: manifest snapshots are loaded (damaged tables are
// quarantined, not fatal), the WAL is replayed, and a checkpoint folds the
// replayed tail back into snapshots.
func OpenEngine(cfg EngineConfig) (*Engine, error) {
	cfg.fill()
	e := &Engine{
		cfg:        cfg,
		db:         query.Open(),
		tables:     map[string]string{},
		dirty:      map[string]bool{},
		quarantine: map[string]*quarantined{},
		ver:        map[string]uint64{},
		nextTxn:    1,
	}
	e.sess = &Session{e: e}
	e.bud = cfg.Budget
	if cfg.Dir == "" {
		return e, nil
	}
	if err := cfg.FS.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: data dir: %w", err)
	}
	if err := e.recoverLocked(); err != nil {
		e.Abort()
		return nil, err
	}
	return e, nil
}

// validTableName gates the table-name → filename mapping: the SQL lexer
// only produces identifiers, but defense in depth costs one loop.
func validTableName(name string) bool {
	if name == "" {
		return false
	}
	for _, r := range name {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// DB exposes the authoritative catalog (for tests).
func (e *Engine) DB() *query.DB { return e.db }

// Quarantined returns the tables currently quarantined after corruption,
// keyed by name.
func (e *Engine) Quarantined() map[string]error {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]error, len(e.quarantine))
	for name, q := range e.quarantine {
		out[name] = q.err
	}
	return out
}

// Close checkpoints (folding any WAL tail into snapshots) and closes the
// log. After a clean Close the WAL is empty and restart replays nothing.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	var first error
	if e.cfg.Dir != "" && e.broken == nil {
		first = e.checkpointLocked()
	}
	e.closeLogLocked()
	return first
}

// Abort closes the log without flushing or checkpointing — the crash path,
// used by recovery tests and failed opens. State on disk stays exactly as
// the last completed I/O left it.
func (e *Engine) Abort() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.closeLogLocked()
}

func (e *Engine) closeLogLocked() {
	if e.wal != nil {
		e.wal.Close() //nolint:errcheck
		e.wal = nil
	}
	if e.broken == nil {
		e.broken = errors.New("server: engine closed")
	}
}

// Execute runs one statement on the engine's default session and packages
// its outcome, including latency and WAL bytes, as a
// wire Result (see Session.Execute). Network connections each hold their own
// Session (giving them independent transactions); Execute exists for tests
// and embedded callers.
func (e *Engine) Execute(sql string) (*wire.Result, error) {
	return e.sess.Execute(sql)
}

// ExecuteStream runs one statement on the engine's default session like
// Execute, but streams a plain SELECT's result batches to sink as the
// operator tree produces them. See Session.ExecuteStream.
func (e *Engine) ExecuteStream(ctx context.Context, sql string, sink func(hdr *core.Table, batch []*core.Tuple) error) (*wire.Result, bool, error) {
	return e.sess.ExecuteStream(ctx, sql, sink)
}

// execParsed is the autocommit path of every statement but SELECT (no open
// transaction).
func (e *Engine) execParsed(sql string, stmt query.Stmt) (*wire.Result, error) {
	switch stmt.(type) {
	case query.CreateTable, query.Insert, query.Delete, query.Drop,
		query.Analyze, query.CreateIndex:
		// ANALYZE and CREATE INDEX mutate the planner catalog (stats,
		// index definitions); WAL-logging them makes that state as
		// durable as the data, with the manifest carrying it across
		// checkpoints.
		return e.publish(commitUnit{sqls: []string{sql}, stmts: []query.Stmt{stmt}})
	default:
		// EXPLAIN, SHOW TABLES, DESCRIBE and anything new run directly
		// on the in-memory catalog.
		e.mu.Lock()
		defer e.mu.Unlock()
		d := e.beginStatsLocked()
		qr, err := e.db.ExecStmt(stmt)
		if err != nil {
			return nil, err
		}
		return e.finishStatsLocked(d, qr), nil
	}
}

// execCheckpoint runs the engine-level CHECKPOINT command.
func (e *Engine) execCheckpoint() (*wire.Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	d := e.beginStatsLocked()
	if err := e.checkpointLocked(); err != nil {
		return nil, err
	}
	qr := &query.Result{Message: fmt.Sprintf("checkpoint complete (generation %d)", e.gen)}
	return e.finishStatsLocked(d, qr), nil
}

// commitUnit is one write on its way through publish: an autocommit
// statement (txn 0) or a transaction's buffered statements.
type commitUnit struct {
	txn   uint64
	sqls  []string
	stmts []query.Stmt
	// versions, for a transaction, are the commit versions it observed at
	// BEGIN: publish refuses the unit if a table it writes has moved since.
	versions map[string]uint64
}

// publish is the one step every write takes. Under e.mu it checks the gates
// (gateLocked), enqueues the unit's records for group commit, applies its
// statements — enqueue order is apply order, so the log and memory agree on
// history, and a statement that fails here fails identically on replay —
// stamps the tables they wrote, and runs the auto-checkpoint; the new state
// is visible at once. It then unlocks and acks only once the unit is
// durable; if the flush fails, memory is ahead of the log and the engine
// latches read-only until a restart recovers to the durable prefix.
func (e *Engine) publish(u commitUnit) (*wire.Result, error) {
	e.mu.Lock()
	d := e.beginStatsLocked()
	if err := e.gateLocked(u); err != nil {
		e.mu.Unlock()
		return nil, err
	}
	var tk *txn.Ticket
	if e.gc != nil {
		tk = e.gc.Enqueue(wal.EncodeUnit(u.txn, u.sqls))
	}
	var (
		qr       *query.Result
		applyErr error
		written  []string
		affected int
	)
	for i, stmt := range u.stmts {
		r, err := e.applyLocked(stmt)
		if err != nil {
			if u.txn != 0 { // a bug after the version check; replay keeps going too
				e.cfg.Logf("probserve: commit txn %d: statement %q failed unexpectedly: %v", u.txn, u.sqls[i], err)
			}
			if applyErr == nil {
				applyErr = err
			}
			continue
		}
		qr = r
		affected += r.Affected
		written = append(written, e.writtenTablesLocked(stmt)...)
	}
	e.stampLocked(written)
	if e.gc != nil {
		e.maybeCheckpointLocked()
	}
	if u.txn != 0 {
		qr = &query.Result{
			Message:  fmt.Sprintf("transaction %d committed (%d statements)", u.txn, len(u.stmts)),
			Affected: affected,
		}
	}
	var res *wire.Result
	if qr != nil {
		res = e.finishStatsLocked(d, qr)
	}
	e.mu.Unlock()

	var werr error
	if tk != nil {
		var ack txn.Ack
		if ack, werr = tk.Wait(); werr != nil {
			e.mu.Lock()
			if e.broken == nil {
				e.broken = fmt.Errorf("server: WAL flush failed (memory may be ahead of the log): %w", werr)
				e.cfg.Logf("probserve: %v", e.broken)
			}
			e.mu.Unlock()
		} else if res != nil {
			res.Stats.LatencyMicros = uint64(time.Since(d.start).Microseconds())
			if ack.Led {
				res.Stats.WALFsyncs = 1
			}
			res.Stats.WALGroupSize = uint64(ack.GroupSize)
		}
	}
	switch {
	case applyErr != nil && u.txn == 0:
		return nil, applyErr
	case applyErr != nil:
		return nil, fmt.Errorf("server: transaction %d commit applied with errors: %w", u.txn, applyErr)
	case werr != nil && u.txn == 0:
		return nil, fmt.Errorf("server: statement not durable: %w", werr)
	case werr != nil:
		return nil, fmt.Errorf("server: transaction %d not durable: %w", u.txn, werr)
	}
	return res, nil
}

// gateLocked refuses a unit that must not publish: the engine is declared
// read-only or latched after a durability failure, a statement touches a
// quarantined table, or — for a transaction — a table it writes was
// committed by another writer since its BEGIN.
func (e *Engine) gateLocked(u commitUnit) error {
	if e.readOnly != nil {
		return e.readOnly
	}
	if e.gc != nil && e.broken != nil {
		return fmt.Errorf("server: engine is read-only after a durability failure: %w", e.broken)
	}
	for _, stmt := range u.stmts {
		if err := e.precheckLocked(stmt); err != nil {
			return err
		}
		for _, name := range e.writtenTablesLocked(stmt) {
			if u.versions != nil && e.ver[name] != u.versions[name] {
				e.conflicts.Add(1)
				return &txn.ConflictError{Table: name}
			}
		}
	}
	return nil
}

// writtenTables names the tables a mutation statement writes.
func (e *Engine) writtenTablesLocked(stmt query.Stmt) []string {
	switch s := stmt.(type) {
	case query.CreateTable:
		return []string{s.Name}
	case query.Insert:
		return []string{s.Table}
	case query.Delete:
		return []string{s.Table}
	case query.Drop:
		return []string{s.Name}
	case query.CreateIndex:
		return []string{s.Table}
	case query.Analyze:
		if s.Table != "" {
			return []string{s.Table}
		}
		return e.db.TableNames()
	}
	return nil
}

// stampLocked advances the commit clock once for a unit and stamps the
// tables its statements wrote.
func (e *Engine) stampLocked(names []string) {
	e.verSeq++
	for _, n := range names {
		e.ver[n] = e.verSeq
	}
}

// maybeCheckpointLocked auto-checkpoints once the WAL (durable plus
// enqueued) passes the configured threshold.
func (e *Engine) maybeCheckpointLocked() {
	if e.cfg.CheckpointBytes > 0 && e.gc.Size() >= e.cfg.CheckpointBytes {
		if cerr := e.checkpointLocked(); cerr != nil {
			// The statement itself is (or will be) durable in the WAL;
			// surface the checkpoint failure to the log, not the client.
			e.cfg.Logf("probserve: auto-checkpoint failed: %v", cerr)
		}
	}
}

// execSelectStream runs an autocommit SELECT, plain (rows go to sink) or
// aggregate (the Result carries the message), indexed or not, by the one
// read route: under e.mu it refuses a quarantined table and builds the
// statement against frozen tables (query.DB.PrepareSelect), then it unlocks
// and runs — the sink (and a slow client behind it) never blocks writers,
// and a commit's statements are applied whole before or after the build.
//
// A SELECT appends no WAL and raises no conflict, so its
// Result carries none of the engine-wide deltas finishStatsLocked computes:
// with the lock released those would be other sessions' work.
func (e *Engine) execSelectStream(ctx context.Context, s query.SelectStmt, sink func(hdr *core.Table, batch []*core.Tuple) error) (*wire.Result, error) {
	e.mu.Lock()
	start := time.Now()
	if err := e.precheckLocked(s); err != nil {
		e.mu.Unlock()
		return nil, err
	}
	run, err := e.db.PrepareSelect(s)
	e.mu.Unlock()
	if err != nil {
		return nil, err
	}
	qr, err := run(ctx, sink)
	if err != nil {
		return nil, err
	}
	res := statementResult(start, qr)
	res.Stats.Rows = uint64(qr.Affected)
	return res, nil
}

// statMarks snapshots the engine counters at statement start; the matching
// finishStatsLocked turns them into the per-statement deltas of the Result.
type statMarks struct {
	start     time.Time
	wal       int64
	conflicts uint64
}

func (e *Engine) beginStatsLocked() statMarks {
	return statMarks{
		start:     time.Now(),
		wal:       e.walSizeLocked(),
		conflicts: e.conflicts.Load(),
	}
}

// statementResult starts a statement's wire Result from what the query
// layer reports about it — message, affected count and the planner-derived
// counters — in or out of a transaction.
func statementResult(start time.Time, qr *query.Result) *wire.Result {
	return &wire.Result{
		Message:  qr.Message,
		Affected: uint64(qr.Affected),
		Stats: wire.Stats{
			LatencyMicros:    uint64(time.Since(start).Microseconds()),
			IndexProbes:      qr.Planner.IndexProbes,
			IndexPruned:      qr.Planner.IndexPruned,
			PlannerFallbacks: qr.Planner.PlannerFallbacks,
			VecTuples:        qr.Planner.VecTuples,
			ScalarTuples:     qr.Planner.ScalarTuples,
		},
	}
}

// finishStatsLocked packages a finished statement's outcome and the engine
// counters' deltas since d as a wire Result. Its callers hold e.mu from the
// marks to here, so the deltas are the statement's own work.
func (e *Engine) finishStatsLocked(d statMarks, qr *query.Result) *wire.Result {
	// A checkpoint during the statement rolls the WAL and shrinks it below
	// the starting size; clamp so the per-statement delta never underflows.
	walDelta := e.walSizeLocked() - d.wal
	if walDelta < 0 {
		walDelta = 0
	}
	res := statementResult(d.start, qr)
	res.Stats.WALBytes = uint64(walDelta)
	res.Stats.TxnConflicts = e.conflicts.Load() - d.conflicts
	return res
}

// walSizeLocked returns the WAL's current size — durable plus enqueued
// bytes, monotone within one generation (a checkpoint rolls the log and
// resets it). The group committer tracks it so an in-flight flush on
// another session never races this read.
func (e *Engine) walSizeLocked() int64 {
	if e.gc == nil {
		return 0
	}
	return e.gc.Size()
}

// precheckLocked rejects statements that must not run: any statement on a
// quarantined table (its disk state is unknown) — except the DROP that
// discards it — and table names that cannot map to a snapshot file.
func (e *Engine) precheckLocked(stmt query.Stmt) error {
	names := e.writtenTablesLocked(stmt)
	switch s := stmt.(type) {
	case query.CreateTable:
		if !validTableName(s.Name) {
			return fmt.Errorf("server: table name %q not persistable", s.Name)
		}
	case query.Drop:
		return nil
	case query.SelectStmt:
		for _, ref := range s.From {
			names = append(names, ref.Name)
		}
	}
	for _, name := range names {
		if q, ok := e.quarantine[name]; ok {
			return &QuarantinedTableError{Table: name, Cause: q.err}
		}
	}
	return nil
}

// applyLocked executes an already-logged mutation against the catalog and
// updates the engine's dirty-table bookkeeping. It is the single code path
// shared by publish and replay (recovery and the replica), so all walk
// identical state transitions.
func (e *Engine) applyLocked(stmt query.Stmt) (*query.Result, error) {
	if s, ok := stmt.(query.Drop); ok {
		if q, qok := e.quarantine[s.Name]; qok {
			// Dropping a quarantined table discards its damaged file; the
			// catalog never knew the table, so skip db execution.
			delete(e.quarantine, s.Name)
			e.cfg.FS.Remove(filepath.Join(e.cfg.Dir, q.file)) //nolint:errcheck
			return &query.Result{Message: fmt.Sprintf("dropped quarantined table %s", s.Name)}, nil
		}
	}
	qr, err := e.db.ExecStmt(stmt)
	if err != nil {
		return nil, err
	}
	switch s := stmt.(type) {
	case query.CreateTable:
		e.dirty[s.Name] = true
	case query.Insert:
		e.dirty[s.Table] = true
	case query.Delete:
		e.dirty[s.Table] = true
	case query.Drop:
		delete(e.dirty, s.Name)
		// The snapshot file lingers until the next checkpoint's GC; the
		// WAL's DROP record makes the removal durable in the meantime.
		delete(e.tables, s.Name)
	}
	return qr, nil
}

// ReplayErrors returns the typed errors the last recovery skipped past
// (records for quarantined tables and the like). Empty after a clean start.
func (e *Engine) ReplayErrors() []error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]error(nil), e.replayErrs...)
}

// Conflicts returns the engine-wide count of first-writer-wins aborts.
func (e *Engine) Conflicts() uint64 { return e.conflicts.Load() }
