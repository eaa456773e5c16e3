package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime/debug"
	"sync"
	"syscall"
	"time"

	"probdb/internal/core"
	"probdb/internal/govern"
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
	// Workers is the number of query executors: at most this many queries
	// run concurrently, regardless of connection count. Default 4.
	Workers int
	// QueueDepth bounds queries queued behind the workers (admission
	// control / backpressure). Default 4×Workers.
	QueueDepth int
	// QueryTimeout bounds one query's total wait: queue admission plus
	// execution. On expiry the session gets an Error frame. A streaming
	// SELECT is cancelled between batches (its operator tree aborts); a
	// non-streamable statement still completes inside the engine but its
	// result is replaced by the timeout error. Default 30s.
	QueryTimeout time.Duration
	// DataDir persists base tables as heap files; empty means ephemeral.
	DataDir string
	// CheckpointBytes auto-checkpoints when the WAL exceeds this size.
	// Default 1 MiB; negative disables auto-checkpointing.
	CheckpointBytes int64
	// Parallelism is the degree of parallelism for operator execution
	// inside each query: 0 = one worker per logical CPU, 1 = sequential.
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
	// Workers+QueueDepth, matching the old single-queue capacity per class.
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
	// (which then holds replica.wal instead of heaps and manifests).
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

type task struct {
	sql string
	// ses is the connection's session: it carries the open transaction, so
	// BEGIN on one connection never leaks into another.
	ses *Session
	// conn/bw let the worker stream RowBatch frames straight to the client
	// while it owns the response; the session writes nothing until done.
	conn net.Conn
	bw   *bufio.Writer
	ctx  context.Context
	done chan taskDone // buffered(1): a worker never blocks on an abandoned task
	// sesBud is the connection's memory budget (nil when accounting is
	// off); execute derives a per-query child from it.
	sesBud *govern.Budget
	// enq is when the task entered the worker queue, for queue-wait stats
	// and the queued-too-long check.
	enq time.Time
}

type taskDone struct {
	res      *wire.Result
	streamed bool // RowBatch frames were written; finish with ResultEnd, not Result
	err      error
}

// errClientGone marks a row-batch write that failed because the client's
// connection died mid-stream; the session ends without another write.
var errClientGone = errors.New("server: client disconnected mid-stream")

// errQueueDeadline marks a task whose deadline expired while it was still
// queued: the statement never started executing, so even a write is safe to
// resubmit. It travels to the client as an ErrQueueTimeout frame.
var errQueueDeadline = errors.New("server: deadline expired while queued")

// Server accepts wire-protocol connections and executes their queries on a
// shared Engine through a bounded worker pool.
type Server struct {
	cfg Config
	eng *Engine
	ln  net.Listener

	work chan *task
	quit chan struct{}

	grp    sync.WaitGroup // accept loop + workers + disk watchdog
	sessWG sync.WaitGroup // session goroutines

	mu    sync.Mutex
	conns map[net.Conn]struct{}

	// adm bounds queued+running statements per class; bud is the root of
	// the memory-budget tree (nil when accounting is off).
	adm *govern.Admission
	bud *govern.Budget

	// qmu guards the running-query registry the budget's shed hook scans
	// for the largest victim.
	qmu     sync.Mutex
	queries map[*task]*runningQuery

	// rep is non-nil when this server is a read replica: it owns the engine
	// and the WAL tail loop.
	rep *Replica
}

// runningQuery is one registry entry: the query's budget (to size victims)
// and a cause-carrying cancel that aborts its operator tree.
type runningQuery struct {
	bud    *govern.Budget
	cancel context.CancelCauseFunc
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
			Dir:         cfg.DataDir,
			Leader:      cfg.ReplicaOf,
			Poll:        cfg.ReplicaPoll,
			Parallelism: cfg.Parallelism,
			FS:          cfg.FS,
			Logf:        cfg.Logf,
		})
		if err != nil {
			return nil, err
		}
		eng = rep.Engine()
	} else {
		eng, err = OpenEngine(EngineConfig{
			Dir:             cfg.DataDir,
			CheckpointBytes: cfg.CheckpointBytes,
			Parallelism:     cfg.Parallelism,
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
		cfg: cfg,
		eng: eng,
		rep: rep,
		// Admission bounds in-flight statements to Capacity(), so an
		// admitted send on work can never block.
		work:    make(chan *task, adm.Capacity()),
		quit:    make(chan struct{}),
		conns:   map[net.Conn]struct{}{},
		adm:     adm,
		bud:     bud,
		queries: map[*task]*runningQuery{},
	}
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
	for _, q := range s.queries {
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

// Start binds the listener and launches the accept loop and worker pool.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		s.eng.Close() //nolint:errcheck
		return err
	}
	s.ln = ln
	if s.rep != nil {
		s.rep.Start()
	}
	for i := 0; i < s.cfg.Workers; i++ {
		s.grp.Add(1)
		go s.worker()
	}
	s.grp.Add(1)
	go s.acceptLoop()
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
	s.ln.Close() //nolint:errcheck

	// Wake sessions idle in ReadFrame; sessions mid-query finish writing
	// their response first, then observe the deadline/quit and exit.
	s.mu.Lock()
	for c := range s.conns {
		c.SetReadDeadline(time.Now()) //nolint:errcheck
	}
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() { s.sessWG.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.Close() //nolint:errcheck
		}
		s.mu.Unlock()
		<-drained
	}

	close(s.work)
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

func (s *Server) stopping() bool {
	select {
	case <-s.quit:
		return true
	default:
		return false
	}
}

func (s *Server) acceptLoop() {
	defer s.grp.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if s.stopping() {
				return
			}
			s.cfg.Logf("probserve: accept: %v", err)
			return
		}
		s.mu.Lock()
		if len(s.conns) >= s.cfg.MaxConns {
			s.mu.Unlock()
			s.refuse(conn)
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.sessWG.Add(1)
		go s.session(conn)
	}
}

func (s *Server) refuse(conn net.Conn) {
	conn.SetWriteDeadline(time.Now().Add(2 * time.Second))                         //nolint:errcheck
	wire.WriteFrame(conn, wire.FrameError, []byte("server: too many connections")) //nolint:errcheck
	conn.Close()                                                                   //nolint:errcheck
}

// session serves one connection: a read loop over frames, answering Pings
// inline and funnelling queries through the worker pool.
func (s *Server) session(conn net.Conn) {
	defer s.sessWG.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close() //nolint:errcheck
	}()
	// Backstop: a bug in the session's own frame handling must cost one
	// connection, never the whole server.
	defer func() {
		if r := recover(); r != nil {
			s.cfg.Logf("probserve: session panicked: %v\n%s", r, debug.Stack())
		}
	}()

	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	ses := s.eng.NewSession()
	defer ses.Close() // roll back a transaction the client left open
	// One budget per connection; queries charge grandchildren of it. With
	// correctly paired operators it drains to zero on its own, but Drain is
	// kept as a leak backstop.
	var sesBud *govern.Budget
	if s.bud != nil {
		sesBud = s.bud.Child("session", s.cfg.SessionMem)
	}
	defer sesBud.Drain()
	for {
		if s.stopping() {
			return
		}
		ft, payload, err := wire.ReadFrame(br)
		if err != nil {
			if !isDisconnect(err) && !s.stopping() {
				s.writeFrame(conn, bw, wire.FrameError, []byte("protocol: "+err.Error()))
			}
			return
		}
		switch ft {
		case wire.FramePing:
			if !s.writeFrame(conn, bw, wire.FramePong, nil) {
				return
			}
		case wire.FrameQuery:
			if !s.handleQuery(conn, bw, ses, sesBud, string(payload)) {
				return
			}
		case wire.FrameWALFetch:
			if !s.handleWALFetch(conn, bw, payload) {
				return
			}
		default:
			if !s.writeFrame(conn, bw, wire.FrameError,
				[]byte(fmt.Sprintf("protocol: unexpected %v frame", ft))) {
				return
			}
		}
	}
}

// handleQuery submits the statement to the worker pool and relays the
// outcome. While the query runs, the worker owns the connection's write
// side (it streams RowBatch frames as the operator tree produces them); the
// session waits for completion and writes the terminal frame — ResultEnd
// after a streamed result, Result otherwise, Error on failure (legal even
// after batches have gone out). It reports whether the session should
// continue.
func (s *Server) handleQuery(conn net.Conn, bw *bufio.Writer, ses *Session, sesBud *govern.Budget, sql string) bool {
	// HEALTH bypasses admission and the worker pool: it must answer from
	// the session goroutine precisely when every slot is occupied.
	if isHealthSQL(sql) {
		return s.writeFrame(conn, bw, wire.FrameResult, wire.EncodeResult(s.healthResult()))
	}

	class := govern.ClassifySQL(sql, ses.InTxn())
	if err := s.adm.Acquire(class); err != nil {
		return s.writeFrame(conn, bw, wire.FrameError, s.errorPayload(err))
	}
	defer s.adm.Release(class)

	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.QueryTimeout)
	defer cancel()
	tk := &task{
		sql: sql, ses: ses, sesBud: sesBud, conn: conn, bw: bw,
		ctx: ctx, enq: time.Now(), done: make(chan taskDone, 1),
	}

	// Admission caps in-flight statements to the channel's capacity, so
	// this send cannot block on a full queue; the quit case only covers a
	// shutdown racing the submit.
	select {
	case s.work <- tk:
	case <-s.quit:
		return s.writeFrame(conn, bw, wire.FrameError, []byte("server: shutting down"))
	}

	// A submitted query must drain before the session touches the
	// connection again — the worker may be mid-frame. The timeout fires
	// through ctx, which aborts a streaming operator tree between batches;
	// a non-streamable statement runs to completion as before. (No quit
	// case either: the worker pool stays alive through Shutdown until
	// sessions finish.)
	d := <-tk.done
	if d.err != nil {
		if errors.Is(d.err, errClientGone) {
			return false
		}
		ok := s.writeFrame(conn, bw, wire.FrameError, s.errorPayload(d.err))
		var pe *panicError
		if errors.As(d.err, &pe) {
			// The Error frame is on the wire; now drop this connection —
			// and only this connection.
			return false
		}
		return ok
	}
	if d.streamed {
		return s.writeFrame(conn, bw, wire.FrameResultEnd, wire.EncodeResultEnd(d.res))
	}
	return s.writeFrame(conn, bw, wire.FrameResult, wire.EncodeResult(d.res))
}

// handleWALFetch answers a replica's pull from the session goroutine —
// like HEALTH it must not queue behind the worker pool, or a busy leader
// would stall its own replicas. The engine snapshot under its mutex is
// brief; the file read runs lock-free.
func (s *Server) handleWALFetch(conn net.Conn, bw *bufio.Writer, payload []byte) bool {
	from, max, err := wire.DecodeWALFetch(payload)
	if err != nil {
		return s.writeFrame(conn, bw, wire.FrameError,
			wire.EncodeError(wire.ErrGeneric, 0, "protocol: "+err.Error()))
	}
	seg, err := s.eng.FetchWAL(from, max)
	if err != nil {
		return s.writeFrame(conn, bw, wire.FrameError, wire.EncodeError(wire.ErrGeneric, 0, err.Error()))
	}
	return s.writeFrame(conn, bw, wire.FrameWALSegment, wire.EncodeWALSegment(seg))
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

// writeFrame writes one response frame with a write deadline; false means
// the connection is gone and the session should end.
func (s *Server) writeFrame(conn net.Conn, bw *bufio.Writer, ft wire.FrameType, payload []byte) bool {
	conn.SetWriteDeadline(time.Now().Add(s.cfg.QueryTimeout)) //nolint:errcheck
	if err := wire.WriteFrame(bw, ft, payload); err != nil {
		return false
	}
	if err := bw.Flush(); err != nil {
		return false
	}
	return true
}

func (s *Server) worker() {
	defer s.grp.Done()
	for tk := range s.work {
		wait := time.Since(tk.enq)
		// A deadline that expired while the task sat in the queue means the
		// statement never started; report that distinctly so the client
		// knows a blind resubmit is safe even for writes.
		if tk.ctx.Err() != nil {
			tk.done <- taskDone{err: errQueueDeadline}
			continue
		}
		res, streamed, err := s.execute(tk)
		if res != nil {
			res.Stats.QueueWaitMicros = uint64(wait.Microseconds())
			res.Stats.Rejections = s.adm.Rejections()
			res.Stats.ShedBytes = uint64(s.bud.ShedBytes())
		}
		tk.done <- taskDone{res: res, streamed: streamed, err: err}
	}
}

// panicError is a query that panicked inside the engine, converted to an
// ordinary error so the worker — and with it every other session — survives.
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
// writing each result batch to the task's connection as the operator tree
// produces it, and converting a panic anywhere under the engine into a
// *panicError instead of crashing the process. streamed reports whether any
// RowBatch frame went out — after that only ResultEnd or Error may follow.
func (s *Server) execute(tk *task) (res *wire.Result, streamed bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			pe := &panicError{val: r, stack: debug.Stack()}
			s.cfg.Logf("probserve: query %q panicked: %v\n%s", tk.sql, r, pe.stack)
			res, err = nil, pe
		}
	}()
	ctx, cancel := context.WithCancelCause(tk.ctx)
	defer cancel(nil)
	var qb *govern.Budget
	if tk.sesBud != nil {
		// The query's own budget rides the context down to the operators;
		// registering it makes this query a candidate victim for the
		// server budget's shed hook.
		qb = tk.sesBud.Child("query", s.cfg.QueryMem)
		ctx = govern.WithBudget(ctx, qb)
		s.qmu.Lock()
		s.queries[tk] = &runningQuery{bud: qb, cancel: cancel}
		s.qmu.Unlock()
		defer func() {
			s.qmu.Lock()
			delete(s.queries, tk)
			s.qmu.Unlock()
			// Operators release what they charged as the tree closes;
			// Drain is the backstop that keeps a leak from wedging the
			// server budget forever.
			if leaked := qb.Drain(); leaked != 0 {
				s.cfg.Logf("probserve: query %q leaked %d budget bytes (reclaimed)", tk.sql, leaked)
			}
		}()
	}
	var frame []byte
	sink := batchSink(&frame, func(payload []byte) error {
		if !s.writeFrame(tk.conn, tk.bw, wire.FrameRowBatch, payload) {
			return errClientGone
		}
		streamed = true
		return nil
	})
	res, engStreamed, err := tk.ses.ExecuteStream(ctx, tk.sql, sink)
	if err != nil && ctx.Err() != nil {
		// A cancellation injected by the shed reclaimer carries the budget
		// shortfall as its cause; surface that instead of a bare
		// "context canceled".
		var be *govern.BudgetError
		if cause := context.Cause(ctx); errors.As(cause, &be) {
			err = cause
		}
	}
	streamed = streamed || (engStreamed && err == nil)
	return res, streamed, err
}

// batchSink is the sink a streamed SELECT's batches go through: each batch
// is encoded as a RowBatch payload into *frame — one buffer per statement,
// reused from batch to batch — and handed to write; the encoder resolves the
// header's columns on the first batch.
func batchSink(frame *[]byte, write func(payload []byte) error) func(hdr *core.Table, batch []*core.Tuple) error {
	var enc *wire.BatchEncoder
	return func(hdr *core.Table, batch []*core.Tuple) error {
		if enc == nil {
			enc = wire.NewBatchEncoder(hdr)
		}
		*frame = enc.AppendNext((*frame)[:0], batch)
		return write(*frame)
	}
}

func isDisconnect(err error) bool {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
		return true
	}
	// Read deadlines (set during Shutdown to wake idle sessions) and reset
	// connections also mean the session is over, not a protocol error.
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	return errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE)
}
