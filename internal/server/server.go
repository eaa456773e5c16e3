package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime/debug"
	"sync"
	"time"

	"probdb/internal/core"
	"probdb/internal/govern"
	"probdb/internal/pipe"
	"probdb/internal/query"
	"probdb/internal/vfs"
	"probdb/internal/wire"
)

// Config tunes a Server. Zero values take the documented defaults.
type Config struct {
	// Addr is the TCP listen address, e.g. ":7432" (default) or
	// "127.0.0.1:0" for an ephemeral test port.
	Addr string
	// MaxConns bounds concurrently connected sessions; further connections
	// are turned away with an Error frame. Default 64.
	MaxConns int
	// Workers bounds the statements executing at once, regardless of
	// connection count: each statement runs on its connection's goroutine
	// once it holds one of Workers slots. Default 4.
	Workers int
	// QueueDepth is the number of admitted statements per class that may
	// wait for a Workers slot: it sets the default of the Admit* limits
	// (Workers+QueueDepth). Default 4×Workers.
	QueueDepth int
	// QueryTimeout bounds one query's total wait: the wait for a Workers
	// slot plus execution. On expiry the session gets an Error frame. A streaming
	// SELECT is cancelled between batches (its operator tree aborts); a
	// non-streamable statement runs to completion. Default 30s.
	QueryTimeout time.Duration
	// DataDir persists base tables as snapshot files; empty means ephemeral.
	DataDir string
	// CheckpointBytes auto-checkpoints when the WAL exceeds this size.
	// Default 1 MiB; negative disables auto-checkpointing.
	CheckpointBytes int64
	// Deprecated: Parallelism is ignored. A statement's operators no longer
	// take a degree of parallelism: the kernels that build or floor a pdf
	// per row split a batch over runtime.GOMAXPROCS(0) workers, every other
	// loop runs inline, and Workers alone bounds how many statements run
	// at once. The field stays so existing Config literals still compile.
	Parallelism int
	// FS overrides the filesystem the engine persists through (tests).
	FS vfs.FS
	// Logf, when set, receives server lifecycle and session errors.
	Logf func(format string, args ...any)

	// MemBudget caps the bytes the server's operators and columnar cache
	// may hold at once. 0 disables memory accounting entirely (unless
	// SessionMem or QueryMem is set): the governance path becomes a no-op
	// and execution is byte-identical to an ungoverned server.
	MemBudget int64
	// SessionMem caps one connection's concurrent reservations; 0 means
	// unlimited within the server budget.
	SessionMem int64
	// QueryMem caps one statement's reservations; a query that exceeds it
	// fails alone with a typed budget error. 0 means unlimited within the
	// session budget.
	QueryMem int64
	// AdmitReads/AdmitWrites/AdmitTxns bound the statements per class that
	// may be queued or running at once; excess is rejected immediately with
	// a machine-readable RetryAfter hint. Each defaults to
	// Workers+QueueDepth.
	AdmitReads  int
	AdmitWrites int
	AdmitTxns   int
	// RetryAfterHint is the backoff the server suggests to rejected
	// clients. Default 100ms.
	RetryAfterHint time.Duration
	// MinDiskFree, when positive and DataDir is set, arms the disk
	// watchdog: below this many free bytes the engine turns declared
	// read-only, and it recovers once free space reaches twice the
	// threshold.
	MinDiskFree int64
	// DiskPollInterval is the watchdog cadence. Default 2s.
	DiskPollInterval time.Duration
	// DiskFree overrides the free-space probe (tests). Default: statfs on
	// the data directory.
	DiskFree func(dir string) (int64, error)

	// ShipWAL retains every WAL generation and serves WALFetch frames, so
	// replicas can tail this server's log. Must be enabled from the data
	// directory's first boot (see EngineConfig.ShipWAL).
	ShipWAL bool
	// ReplicaOf, when set, runs this server as a read replica of the given
	// leader address: the engine is ephemeral and read-only, fed by a tail
	// loop that pulls the leader's WAL and stores it durably in DataDir
	// (which then holds replica.wal instead of snapshots and manifests).
	ReplicaOf string
	// ReplicaPoll is the replica's idle fetch cadence. Default 100ms.
	ReplicaPoll time.Duration
}

func (c *Config) fill() {
	if c.Addr == "" {
		c.Addr = ":7432"
	}
	if c.MaxConns <= 0 {
		c.MaxConns = 64
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = 30 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.AdmitReads <= 0 {
		c.AdmitReads = c.Workers + c.QueueDepth
	}
	if c.AdmitWrites <= 0 {
		c.AdmitWrites = c.Workers + c.QueueDepth
	}
	if c.AdmitTxns <= 0 {
		c.AdmitTxns = c.Workers + c.QueueDepth
	}
	if c.RetryAfterHint <= 0 {
		c.RetryAfterHint = 100 * time.Millisecond
	}
	if c.DiskPollInterval <= 0 {
		c.DiskPollInterval = 2 * time.Second
	}
	if c.DiskFree == nil {
		c.DiskFree = osDiskFree
	}
}

// errClientGone marks a row-batch write that failed because the client's
// connection died mid-stream; the session ends without another write.
var errClientGone = errors.New("server: client disconnected mid-stream")

// errQueueDeadline marks a statement whose deadline expired while it waited
// for a Workers slot: it never started executing, so even a write is safe to
// resubmit. It travels to the client as an ErrQueueTimeout frame.
var errQueueDeadline = errors.New("server: deadline expired while queued")

// Server accepts wire-protocol connections and executes their queries on a
// shared Engine, each on its connection's goroutine under one of Workers
// execution slots.
type Server struct {
	cfg Config
	eng *Engine
	ln  *wire.Listener

	// slots is the Workers semaphore: a statement executes while it holds
	// one.
	slots chan struct{}
	quit  chan struct{}
	grp   sync.WaitGroup // disk watchdog

	// adm bounds queued+running statements per class; bud is the root of
	// the memory-budget tree (nil when accounting is off).
	adm *govern.Admission
	bud *govern.Budget

	// qmu guards the registry of admitted statements, which the deadline
	// timer reaper scans for expired ones and the budget's shed hook for
	// the largest victim. reaper is armed for reapAt (zero: disarmed).
	qmu     sync.Mutex
	queries map[*runningQuery]struct{}
	reaper  *time.Timer
	reapAt  time.Time

	// rep is non-nil when this server is a read replica: it owns the engine
	// and the WAL tail loop.
	rep *Replica
}

// runningQuery is one admitted statement: its deadline, a cause-carrying
// cancel that ends its wait for a slot or aborts its operator tree, and its
// budget while it executes (to size victims; nil with accounting off).
type runningQuery struct {
	deadline time.Time
	cancel   context.CancelCauseFunc
	bud      *govern.Budget
}

// New builds a server (opening the data directory, which replays any WAL
// left by a crash) without listening yet.
func New(cfg Config) (*Server, error) {
	cfg.fill()
	var bud *govern.Budget
	if cfg.MemBudget > 0 || cfg.SessionMem > 0 || cfg.QueryMem > 0 {
		bud = govern.NewBudget("server", cfg.MemBudget)
	}
	var (
		eng *Engine
		rep *Replica
		err error
	)
	if cfg.ReplicaOf != "" {
		rep, err = OpenReplica(ReplicaConfig{
			Dir:    cfg.DataDir,
			Leader: cfg.ReplicaOf,
			Poll:   cfg.ReplicaPoll,
			FS:     cfg.FS,
			Logf:   cfg.Logf,
		})
		if err != nil {
			return nil, err
		}
		eng = rep.Engine()
	} else {
		eng, err = OpenEngine(EngineConfig{
			Dir:             cfg.DataDir,
			CheckpointBytes: cfg.CheckpointBytes,
			FS:              cfg.FS,
			Logf:            cfg.Logf,
			Budget:          bud,
			ShipWAL:         cfg.ShipWAL,
		})
		if err != nil {
			return nil, err
		}
	}
	adm := govern.NewAdmission(cfg.AdmitReads, cfg.AdmitWrites, cfg.AdmitTxns, cfg.RetryAfterHint)
	s := &Server{
		cfg:     cfg,
		eng:     eng,
		rep:     rep,
		slots:   make(chan struct{}, cfg.Workers),
		quit:    make(chan struct{}),
		adm:     adm,
		bud:     bud,
		queries: map[*runningQuery]struct{}{},
	}
	s.reaper = time.AfterFunc(time.Hour, s.reap)
	s.reaper.Stop() // armed by the first statement
	// Under server-budget pressure, cancel the hungriest running query.
	bud.OnPressure(s.shedLargestQuery)
	return s, nil
}

// shedLargestQuery is the server budget's shed hook: it cancels the running
// query holding the most reserved memory, with the budget shortfall as the
// cancellation cause. The victim's reservations release as its operator
// tree closes, so the freed estimate is its current usage.
func (s *Server) shedLargestQuery(want int64) int64 {
	s.qmu.Lock()
	var victim *runningQuery
	var most int64
	for q := range s.queries {
		if u := q.bud.Used(); u > most {
			most, victim = u, q
		}
	}
	s.qmu.Unlock()
	if victim == nil || most == 0 {
		return 0
	}
	victim.cancel(&govern.BudgetError{
		Budget: s.bud.Name(), Requested: want, Used: s.bud.Used(), Limit: s.bud.Limit(),
	})
	return most
}

// Engine exposes the server's engine (for tests).
func (s *Server) Engine() *Engine { return s.eng }

// Replica exposes the server's replica state when running as one (nil on
// leaders), for tests and catchup waits.
func (s *Server) Replica() *Replica { return s.rep }

// Start binds the listener and starts serving connections.
func (s *Server) Start() error {
	ln, err := wire.Listen(wire.ListenConfig{
		Addr:         s.cfg.Addr,
		MaxConns:     s.cfg.MaxConns,
		WriteTimeout: s.cfg.QueryTimeout,
		Name:         "server",
		Logf:         func(format string, args ...any) { s.cfg.Logf("probserve: "+format, args...) },
		Open:         s.open,
	})
	if err != nil {
		s.eng.Close() //nolint:errcheck
		return err
	}
	s.ln = ln
	if s.rep != nil {
		s.rep.Start()
	}
	if s.cfg.DataDir != "" && s.cfg.MinDiskFree > 0 {
		s.grp.Add(1)
		go s.diskWatchdog()
	}
	s.cfg.Logf("probserve: listening on %s (workers=%d queue=%d max-conns=%d mem-budget=%d)",
		ln.Addr(), s.cfg.Workers, s.cfg.QueueDepth, s.cfg.MaxConns, s.cfg.MemBudget)
	return nil
}

// Addr returns the bound listen address (after Start).
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Shutdown stops accepting connections, lets in-flight queries drain and
// their results flush to clients, then closes the engine. If ctx expires
// first, remaining connections are severed.
func (s *Server) Shutdown(ctx context.Context) error {
	close(s.quit)
	s.ln.Shutdown(ctx)
	s.reaper.Stop()
	s.grp.Wait()
	var err error
	if s.rep != nil {
		s.rep.Stop() // closes the tail loop, the local log, and the engine
	} else {
		err = s.eng.Close()
	}
	s.cfg.Logf("probserve: shut down")
	return err
}

// conn is one client connection's state: its engine Session, which carries
// the open transaction so BEGIN on one connection never leaks into another,
// and its memory budget.
type conn struct {
	s   *Server
	c   *wire.Conn
	ses *Session
	// bud is the connection's memory budget (nil when accounting is off);
	// each query charges a child of it.
	bud *govern.Budget
}

func (s *Server) open(c *wire.Conn) wire.Handler {
	h := &conn{s: s, c: c, ses: s.eng.NewSession()}
	if s.bud != nil {
		h.bud = s.bud.Child("session", s.cfg.SessionMem)
	}
	return h
}

func (h *conn) Frame(ft wire.FrameType, payload []byte) bool {
	switch ft {
	case wire.FrameQuery:
		return h.handleQuery(string(payload))
	case wire.FrameWALFetch:
		return h.handleWALFetch(payload)
	}
	return h.c.Unexpected(ft)
}

// Close drains the connection's budget — with correctly paired operators
// it is already zero; Drain is a leak backstop — and rolls back a
// transaction the client left open.
func (h *conn) Close() {
	h.bud.Drain()
	h.ses.Close()
}

// handleQuery runs one statement on the connection's goroutine: admission,
// then a Workers slot, then execution, which streams RowBatch frames
// straight to the client as the operator tree produces them. The terminal
// frame follows once the slot is released — ResultEnd after a streamed
// result, Result otherwise, Error on failure (legal even after batches
// have gone out). Full batches are flushed as they are produced; the last
// batch is buffered and flushed with the terminal frame, so a one-batch
// result costs one socket write. It reports whether the session should
// continue.
func (h *conn) handleQuery(sql string) bool {
	s := h.s
	// HEALTH bypasses admission and the slots: it must answer precisely
	// when every slot is occupied.
	if query.ParseCommand(sql) == query.CmdHealth {
		return h.c.WriteFrame(wire.FrameResult, wire.EncodeResult(s.healthResult()))
	}

	class := govern.ClassifySQL(sql, h.ses.InTxn())
	if err := s.adm.Acquire(class); err != nil {
		return h.c.WriteFrame(wire.FrameError, s.errorPayload(err))
	}
	defer s.adm.Release(class)

	ctx, q := s.track()
	defer s.untrack(q)
	enq := time.Now()
	if !s.takeSlot(ctx) {
		return h.c.WriteFrame(wire.FrameError, s.errorPayload(errQueueDeadline))
	}
	wait := time.Since(enq)
	res, streamed, err := h.execute(ctx, q, sql)
	<-s.slots

	if err != nil {
		if errors.Is(err, errClientGone) {
			return false
		}
		ok := h.c.WriteFrame(wire.FrameError, s.errorPayload(err))
		var pe *panicError
		if errors.As(err, &pe) {
			// The Error frame is on the wire; now drop this connection —
			// and only this connection.
			return false
		}
		return ok
	}
	res.Stats.QueueWaitMicros = uint64(wait.Microseconds())
	res.Stats.Rejections = s.adm.Rejections()
	res.Stats.ShedBytes = uint64(s.bud.ShedBytes())
	if streamed {
		return h.c.WriteFrame(wire.FrameResultEnd, wire.EncodeResultEnd(res))
	}
	return h.c.WriteFrame(wire.FrameResult, wire.EncodeResult(res))
}

// track registers an admitted statement and returns its context, which
// reap cancels once QueryTimeout has passed. No statement arms a timer of
// its own: every deadline is admission plus the same timeout, so a new
// one finds reaper armed for an earlier one and leaves it alone.
func (s *Server) track() (context.Context, *runningQuery) {
	ctx, cancel := context.WithCancelCause(context.Background())
	q := &runningQuery{deadline: time.Now().Add(s.cfg.QueryTimeout), cancel: cancel}
	s.qmu.Lock()
	s.queries[q] = struct{}{}
	if s.reapAt.IsZero() || q.deadline.Before(s.reapAt) {
		s.reapAt = q.deadline
		s.reaper.Reset(s.cfg.QueryTimeout)
	}
	s.qmu.Unlock()
	return ctx, q
}

// untrack removes a statement that has answered from the registry and
// releases its context.
func (s *Server) untrack(q *runningQuery) {
	s.qmu.Lock()
	delete(s.queries, q)
	s.qmu.Unlock()
	q.cancel(nil)
}

// reap is the deadline timer's callback: it cancels every registered
// statement whose deadline has passed, with context.DeadlineExceeded as the
// cause, and re-arms the timer for the earliest deadline still ahead.
func (s *Server) reap() {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	now := time.Now()
	var next time.Time
	for q := range s.queries {
		if !now.Before(q.deadline) {
			q.cancel(context.DeadlineExceeded)
		} else if next.IsZero() || q.deadline.Before(next) {
			next = q.deadline
		}
	}
	s.reapAt = next
	if !next.IsZero() {
		s.reaper.Reset(next.Sub(now))
	}
}

// takeSlot waits for one of the Workers slots. It fails once ctx expires —
// also when the slot and the deadline arrive together — so a statement
// refused here never started executing.
func (s *Server) takeSlot(ctx context.Context) bool {
	select {
	case s.slots <- struct{}{}:
		if ctx.Err() == nil {
			return true
		}
		<-s.slots
	case <-ctx.Done():
	}
	return false
}

// handleWALFetch answers a replica's pull — like HEALTH it takes no
// admission or Workers slot, or a busy leader would stall its own
// replicas. The engine snapshot under its mutex is brief; the file read
// runs lock-free.
func (h *conn) handleWALFetch(payload []byte) bool {
	from, max, err := wire.DecodeWALFetch(payload)
	if err != nil {
		return h.c.WriteFrame(wire.FrameError,
			wire.EncodeError(wire.ErrGeneric, 0, "protocol: "+err.Error()))
	}
	seg, err := h.s.eng.FetchWAL(from, max)
	if err != nil {
		return h.c.WriteFrame(wire.FrameError, wire.EncodeError(wire.ErrGeneric, 0, err.Error()))
	}
	return h.c.WriteFrame(wire.FrameWALSegment, wire.EncodeWALSegment(seg))
}

// errorPayload renders an execution error as a wire error frame, mapping
// the typed governance refusals to machine-readable codes (all of which
// mean "never executed — safe to resubmit") and everything else to a plain
// generic error.
func (s *Server) errorPayload(err error) []byte {
	var (
		qf *govern.QueueFullError
		be *govern.BudgetError
		ro *ReadOnlyError
	)
	switch {
	case errors.Is(err, errQueueDeadline):
		return wire.EncodeError(wire.ErrQueueTimeout, s.cfg.RetryAfterHint,
			fmt.Sprintf("server: queued longer than %v, dropped unexecuted", s.cfg.QueryTimeout))
	case errors.As(err, &qf):
		return wire.EncodeError(wire.ErrOverloaded, qf.RetryAfter, err.Error())
	case errors.As(err, &be):
		return wire.EncodeError(wire.ErrBudget, s.cfg.RetryAfterHint, err.Error())
	case errors.As(err, &ro):
		return wire.EncodeError(wire.ErrReadOnly, s.cfg.RetryAfterHint, err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		return wire.EncodeError(wire.ErrGeneric, 0,
			fmt.Sprintf("server: query timeout after %v", s.cfg.QueryTimeout))
	}
	return wire.EncodeError(wire.ErrGeneric, 0, err.Error())
}

// panicError is a query that panicked inside the engine, converted to an
// ordinary error so the process — and with it every other session — survives.
// The session that sent the query gets it as an Error frame and is then
// disconnected, since engine state touched by a half-executed statement is
// suspect from that client's point of view.
type panicError struct {
	val   any
	stack []byte
}

func (p *panicError) Error() string {
	return fmt.Sprintf("server: query panicked: %v", p.val)
}

// execute runs one statement through the streaming engine entry point,
// writing each result batch to the connection as the operator tree
// produces it, and converting a panic anywhere under the engine into a
// *panicError instead of crashing the process. streamed reports whether any
// RowBatch frame went out — after that only ResultEnd or Error may follow.
func (h *conn) execute(ctx context.Context, q *runningQuery, sql string) (res *wire.Result, streamed bool, err error) {
	s := h.s
	defer func() {
		if r := recover(); r != nil {
			pe := &panicError{val: r, stack: debug.Stack()}
			s.cfg.Logf("probserve: query %q panicked: %v\n%s", sql, r, pe.stack)
			res, err = nil, pe
		}
	}()
	if h.bud != nil {
		// The query's own budget rides the context down to the operators;
		// setting it on the registry entry makes this query a candidate
		// victim for the server budget's shed hook.
		qb := h.bud.Child("query", s.cfg.QueryMem)
		ctx = govern.WithBudget(ctx, qb)
		s.qmu.Lock()
		q.bud = qb
		s.qmu.Unlock()
		defer func() {
			s.qmu.Lock()
			q.bud = nil
			s.qmu.Unlock()
			// Operators release what they charged as the tree closes;
			// Drain is the backstop that keeps a leak from wedging the
			// server budget forever.
			if leaked := qb.Drain(); leaked != 0 {
				s.cfg.Logf("probserve: query %q leaked %d budget bytes (reclaimed)", sql, leaked)
			}
		}()
	}
	var (
		frame   []byte
		writing time.Duration // spent in the sink's socket writes
	)
	sink := batchSink(&frame, func(payload []byte, last bool) error {
		// A full batch is flushed at once, so a long result streams; the
		// last one waits in the buffer for the terminal frame
		// handleQuery writes, and both leave in one write.
		write := h.c.WriteFrame
		if last {
			write = h.c.BufferFrame
		}
		t0 := time.Now()
		ok := write(wire.FrameRowBatch, payload)
		writing += time.Since(t0)
		if !ok {
			return errClientGone
		}
		streamed = true
		return nil
	})
	res, engStreamed, err := h.ses.ExecuteStream(ctx, sql, sink)
	if res != nil {
		// The statement's latency is its execution; a slow client's socket
		// is wire time.
		res.Stats.LatencyMicros -= min(res.Stats.LatencyMicros, uint64(writing.Microseconds()))
	}
	if err != nil && ctx.Err() != nil {
		// The deadline timer and the shed hook cancel with a cause — the
		// deadline, or the budget shortfall; surface it instead of a bare
		// "context canceled".
		err = context.Cause(ctx)
	}
	streamed = streamed || (engStreamed && err == nil)
	return res, streamed, err
}

// batchSink is the sink a streamed SELECT's batches go through: each batch
// is encoded as a RowBatch payload into *frame — one buffer per statement,
// reused from batch to batch — and handed to write; the encoder resolves the
// header's columns on the first batch. last reports a batch shorter than
// pipe.BatchSize, which pipe.Run emits only to end the stream.
func batchSink(frame *[]byte, write func(payload []byte, last bool) error) func(hdr *core.Table, batch []*core.Tuple) error {
	var enc *wire.BatchEncoder
	return func(hdr *core.Table, batch []*core.Tuple) error {
		if enc == nil {
			enc = wire.NewBatchEncoder(hdr)
		}
		*frame = enc.AppendNext((*frame)[:0], batch)
		return write(*frame, len(batch) < pipe.BatchSize)
	}
}
