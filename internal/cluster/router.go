package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"probdb/internal/core"
	"probdb/internal/govern"
	"probdb/internal/query"
	"probdb/internal/region"
	"probdb/internal/vfs"
	"probdb/internal/wire"
)

// ShardSpec names one shard: its leader and, optionally, a read replica the
// router degrades reads to when the leader is unreachable.
type ShardSpec struct {
	Addr    string
	Replica string
}

// Config tunes a Router. Zero values take the documented defaults.
type Config struct {
	// Addr is the TCP listen address, e.g. ":7433" (default) or
	// "127.0.0.1:0" for an ephemeral test port.
	Addr string
	// Shards is the fixed shard set in partition order. The count is
	// persisted in the manifest; reopening with a different count refuses.
	Shards []ShardSpec
	// Dir holds the checksummed partition manifest (required).
	Dir string
	// DialTimeout bounds one shard dial. Default 2s.
	DialTimeout time.Duration
	// CallTimeout bounds each shard round trip / stream frame. Default 30s.
	CallTimeout time.Duration
	// RetryAfterHint is the backoff suggested with ErrShardUnavailable
	// refusals. Default 250ms.
	RetryAfterHint time.Duration
	// MaxConns bounds concurrent client sessions. Default 64.
	MaxConns int
	// FS overrides the filesystem the manifest persists through (tests).
	FS vfs.FS
	// Logf, when set, receives router lifecycle and session errors.
	Logf func(format string, args ...any)
}

func (c *Config) fill() error {
	if c.Addr == "" {
		c.Addr = ":7433"
	}
	if len(c.Shards) == 0 {
		return fmt.Errorf("cluster: no shards configured")
	}
	if c.Dir == "" {
		return fmt.Errorf("cluster: router needs a manifest directory")
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.CallTimeout <= 0 {
		c.CallTimeout = 30 * time.Second
	}
	if c.RetryAfterHint <= 0 {
		c.RetryAfterHint = 250 * time.Millisecond
	}
	if c.MaxConns <= 0 {
		c.MaxConns = 64
	}
	if c.FS == nil {
		c.FS = vfs.OS
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return nil
}

// shardState is the router's per-shard availability bookkeeping: after a
// transport failure the shard is gated behind a jittered exponential backoff
// so a dead shard costs each statement one refusal, not one dial timeout.
type shardState struct {
	spec ShardSpec

	mu        sync.Mutex
	fails     int
	gateUntil time.Time
}

// available reports whether the leader may be dialed now; when gated it
// returns the remaining wait as a client RetryAfter hint.
func (st *shardState) available() (bool, time.Duration) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if wait := time.Until(st.gateUntil); wait > 0 {
		return false, wait
	}
	return true, 0
}

func (st *shardState) markDown() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.fails++
	st.gateUntil = time.Now().Add(govern.Backoff(st.fails-1, 250*time.Millisecond, 5*time.Second))
}

func (st *shardState) markUp() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.fails = 0
	st.gateUntil = time.Time{}
}

func (st *shardState) down() bool {
	ok, _ := st.available()
	return !ok
}

// errShardUnavailable is the router-side refusal behind wire's
// ErrShardUnavailable code: the statement either never reached the shard or
// its partial results were discarded, so resubmitting after the hint is safe.
type errShardUnavailable struct {
	shard int
	addr  string
	after time.Duration
	cause error
}

func (e *errShardUnavailable) Error() string {
	return fmt.Sprintf("cluster: shard %d (%s) unavailable: %v", e.shard, e.addr, e.cause)
}

// Router is the cluster front end: it speaks the ordinary wire protocol to
// clients and to shards, hash-partitions DML by each table's first column,
// and merges streamed SELECT results back into single-node order. DML is
// serialized under one router-wide lock — that is what makes the hidden
// _gseq sequence agree with every shard's local storage order, which the
// SELECT merge depends on.
type Router struct {
	cfg Config
	man *Manifest
	ln  *wire.Listener

	// dml serializes every mutating statement and guards man + gseq.
	dml sync.Mutex
	// gseq is the next unissued sequence per table; absent means unknown
	// (recovered lazily from the shards' max _gseq on first INSERT).
	gseq map[string]int64

	shards []*shardState
}

// NewRouter opens (or creates) the partition manifest and builds the router
// without listening yet.
func NewRouter(cfg Config) (*Router, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	man, err := ReadManifest(cfg.FS, cfg.Dir)
	switch {
	case errors.Is(err, os.ErrNotExist):
		man = &Manifest{Shards: len(cfg.Shards)}
		if err := WriteManifest(cfg.FS, cfg.Dir, man); err != nil {
			return nil, err
		}
	case err != nil:
		return nil, err
	case man.Shards != len(cfg.Shards):
		return nil, fmt.Errorf("cluster: manifest partitions across %d shards, config names %d (repartitioning is not supported)",
			man.Shards, len(cfg.Shards))
	}
	r := &Router{
		cfg:  cfg,
		man:  man,
		gseq: map[string]int64{},
	}
	for _, spec := range cfg.Shards {
		r.shards = append(r.shards, &shardState{spec: spec})
	}
	return r, nil
}

// Start binds the listener and starts serving connections.
func (r *Router) Start() error {
	ln, err := wire.Listen(wire.ListenConfig{
		Addr:         r.cfg.Addr,
		MaxConns:     r.cfg.MaxConns,
		WriteTimeout: r.cfg.CallTimeout,
		Name:         "router",
		Logf:         func(format string, args ...any) { r.cfg.Logf("probrouter: "+format, args...) },
		Open:         r.open,
	})
	if err != nil {
		return err
	}
	r.ln = ln
	r.cfg.Logf("probrouter: listening on %s (%d shards)", ln.Addr(), len(r.shards))
	return nil
}

// Addr returns the bound listen address (after Start).
func (r *Router) Addr() net.Addr { return r.ln.Addr() }

// Shutdown stops accepting connections and waits for sessions to drain; if
// ctx expires first, remaining connections are severed.
func (r *Router) Shutdown(ctx context.Context) error {
	r.ln.Shutdown(ctx)
	r.cfg.Logf("probrouter: shut down")
	return nil
}

// session is one client connection's state: its cached shard connections.
// wire.Client is single-request, so each session owns its own — concurrent
// sessions scatter over separate connections. cmu guards the two maps: a
// scatter opens its shard streams from concurrent goroutines (one per
// shard, so two goroutines never share a client, but map headers still
// need the lock).
type session struct {
	r       *Router
	c       *wire.Conn
	cmu     sync.Mutex
	leader  map[int]*wire.Client
	replica map[int]*wire.Client
}

func (s *session) cachedLeader(i int) *wire.Client {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	return s.leader[i]
}

func (s *session) cachedReplica(i int) *wire.Client {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	return s.replica[i]
}

func (r *Router) open(c *wire.Conn) wire.Handler {
	return &session{r: r, c: c, leader: map[int]*wire.Client{}, replica: map[int]*wire.Client{}}
}

// Frame serves Query frames and refuses every other client frame.
func (s *session) Frame(ft wire.FrameType, payload []byte) bool {
	if ft != wire.FrameQuery {
		return s.c.Unexpected(ft)
	}
	return s.handleQuery(string(payload))
}

// Close closes the session's cached shard connections.
func (s *session) Close() {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	for _, c := range s.leader {
		c.Close() //nolint:errcheck
	}
	for _, c := range s.replica {
		c.Close() //nolint:errcheck
	}
}

// fail writes err as an Error frame: shard ServerErrors pass through with
// their code and hint intact, router refusals carry ErrShardUnavailable,
// everything else is generic.
func (s *session) fail(err error) bool {
	var (
		se *wire.ServerError
		su *errShardUnavailable
	)
	switch {
	case errors.As(err, &se):
		return s.c.WriteFrame(wire.FrameError, wire.EncodeError(se.Code, se.RetryAfter, se.Msg))
	case errors.As(err, &su):
		after := su.after
		if after <= 0 {
			after = s.r.cfg.RetryAfterHint
		}
		return s.c.WriteFrame(wire.FrameError, wire.EncodeError(wire.ErrShardUnavailable, after, su.Error()))
	}
	return s.c.WriteFrame(wire.FrameError, wire.EncodeError(wire.ErrGeneric, 0, err.Error()))
}

func (s *session) result(res *wire.Result) bool {
	return s.c.WriteFrame(wire.FrameResult, wire.EncodeResult(res))
}

// handleQuery routes one statement. It reports whether the session should
// continue.
func (s *session) handleQuery(sql string) bool {
	switch query.ParseCommand(sql) {
	case query.CmdHealth:
		return s.result(s.r.healthResult())
	case query.CmdCheckpoint:
		res, err := s.fanoutWrite(nil, sql, "checkpointed")
		if err != nil {
			return s.fail(err)
		}
		return s.result(res)
	}
	stmt, err := query.Parse(sql)
	if err != nil {
		return s.fail(err)
	}
	if err := rejectGseq(stmt); err != nil {
		return s.fail(err)
	}
	switch st := stmt.(type) {
	case query.SelectStmt:
		return s.scatterSelect(st)
	case query.CreateTable:
		res, err := s.createTable(st)
		if err != nil {
			return s.fail(err)
		}
		return s.result(res)
	case query.Insert:
		res, err := s.insert(sql, st)
		if err != nil {
			return s.fail(err)
		}
		return s.result(res)
	case query.Delete:
		res, err := s.deleteRows(st)
		if err != nil {
			return s.fail(err)
		}
		return s.result(res)
	case query.Drop:
		res, err := s.dropTable(st)
		if err != nil {
			return s.fail(err)
		}
		return s.result(res)
	case query.Analyze, query.CreateIndex:
		rendered, err := query.Render(stmt)
		if err != nil {
			return s.fail(err)
		}
		res, err := s.fanoutWrite(nil, rendered, "")
		if err != nil {
			return s.fail(err)
		}
		return s.result(res)
	case query.ShowTables, query.Describe:
		rendered, err := query.Render(stmt)
		if err != nil {
			return s.fail(err)
		}
		res, err := s.readAny(rendered)
		if err != nil {
			return s.fail(err)
		}
		return s.result(res)
	case query.Explain:
		return s.fail(fmt.Errorf("cluster: EXPLAIN is not supported through the router; connect to a shard"))
	case query.Begin, query.Commit, query.Rollback:
		return s.fail(fmt.Errorf("cluster: transactions are single-shard; connect to a shard directly"))
	}
	return s.fail(fmt.Errorf("cluster: unsupported statement %T", stmt))
}

// rejectGseq refuses any user statement that names the router's hidden
// column — it exists only between router and shards.
func rejectGseq(stmt query.Stmt) error {
	reserved := fmt.Errorf("cluster: column %s is reserved for the router", GseqCol)
	mentions := func(conds []query.Cond) bool {
		for _, c := range conds {
			if c.Left.Col == GseqCol || c.Right.Col == GseqCol {
				return true
			}
			for _, pc := range c.ProbCols {
				if pc == GseqCol {
					return true
				}
			}
		}
		return false
	}
	switch st := stmt.(type) {
	case query.SelectStmt:
		for _, c := range st.Cols {
			if c == GseqCol {
				return reserved
			}
		}
		if st.OrderCol == GseqCol || st.AggCol == GseqCol || mentions(st.Where) {
			return reserved
		}
	case query.CreateTable:
		for _, c := range st.Cols {
			if c.Name == GseqCol {
				return reserved
			}
		}
	case query.Delete:
		if mentions(st.Where) {
			return reserved
		}
	case query.CreateIndex:
		if st.Col == GseqCol {
			return reserved
		}
	case query.Insert:
		// SplitInsert checks the target list.
	}
	return nil
}

// leaderClient returns the session's cached connection to a shard's leader,
// dialing if needed. A gated (recently failed) shard refuses immediately.
func (s *session) leaderClient(i int) (*wire.Client, error) {
	if c := s.cachedLeader(i); c != nil {
		return c, nil
	}
	st := s.r.shards[i]
	ok, wait := st.available()
	if !ok {
		return nil, &errShardUnavailable{shard: i, addr: st.spec.Addr, after: wait,
			cause: fmt.Errorf("backing off after earlier failure")}
	}
	conn, err := net.DialTimeout("tcp", st.spec.Addr, s.r.cfg.DialTimeout)
	if err != nil {
		st.markDown()
		return nil, &errShardUnavailable{shard: i, addr: st.spec.Addr, cause: err}
	}
	st.markUp()
	c := wire.NewClient(conn)
	c.SetCallTimeout(s.r.cfg.CallTimeout)
	s.cmu.Lock()
	s.leader[i] = c
	s.cmu.Unlock()
	return c, nil
}

// replicaClient dials a shard's read replica (reads only).
func (s *session) replicaClient(i int) (*wire.Client, error) {
	if c := s.cachedReplica(i); c != nil {
		return c, nil
	}
	spec := s.r.shards[i].spec
	if spec.Replica == "" {
		return nil, &errShardUnavailable{shard: i, addr: spec.Addr,
			cause: fmt.Errorf("leader unreachable and no replica configured")}
	}
	conn, err := net.DialTimeout("tcp", spec.Replica, s.r.cfg.DialTimeout)
	if err != nil {
		return nil, &errShardUnavailable{shard: i, addr: spec.Replica, cause: err}
	}
	c := wire.NewClient(conn)
	c.SetCallTimeout(s.r.cfg.CallTimeout)
	s.cmu.Lock()
	s.replica[i] = c
	s.cmu.Unlock()
	return c, nil
}

// ensureLeader makes sure the session holds a live leader connection
// before a write executes anywhere: a cached connection is pinged (it may
// have died since last use — a stale socket must become an up-front typed
// refusal, not a mid-write ambiguity), a missing one is dialed.
func (s *session) ensureLeader(i int) error {
	if c := s.cachedLeader(i); c != nil {
		if err := c.Ping(); err == nil {
			return nil
		}
		s.discardLeader(i)
	}
	_, err := s.leaderClient(i)
	return err
}

// dropLeader discards a session's leader connection after a transport
// failure and gates the shard.
func (s *session) dropLeader(i int) {
	s.cmu.Lock()
	if c := s.leader[i]; c != nil {
		c.Close() //nolint:errcheck
		delete(s.leader, i)
	}
	s.cmu.Unlock()
	s.r.shards[i].markDown()
}

func (s *session) dropReplica(i int) {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	if c := s.replica[i]; c != nil {
		c.Close() //nolint:errcheck
		delete(s.replica, i)
	}
}

// writeShard runs one statement on one shard leader. A transport failure
// gates the shard and reports whether anything may have executed.
func (s *session) writeShard(i int, sql string) (*wire.Result, error) {
	c, err := s.leaderClient(i)
	if err != nil {
		return nil, err
	}
	res, err := c.Query(sql)
	if err != nil {
		var se *wire.ServerError
		if errors.As(err, &se) {
			return nil, fmt.Errorf("cluster: shard %d: %w", i, se)
		}
		s.dropLeader(i)
		return nil, fmt.Errorf("cluster: shard %d (%s) died mid-write; the statement may be partially applied: %w",
			i, s.r.shards[i].spec.Addr, err)
	}
	return res, nil
}

// fanoutWrite runs one statement on every shard (or the given subset)
// under the router's DML lock; see writeLocked. A non-empty msg replaces the
// shards' message.
func (s *session) fanoutWrite(targets []int, sql, msg string) (*wire.Result, error) {
	s.r.dml.Lock()
	defer s.r.dml.Unlock()
	return s.fanoutWriteLocked(targets, sql, msg)
}

func (s *session) fanoutWriteLocked(targets []int, sql, msg string) (*wire.Result, error) {
	if targets == nil {
		for i := range s.r.shards {
			targets = append(targets, i)
		}
	}
	writes := make([]shardWrite, len(targets))
	for k, i := range targets {
		writes[k] = shardWrite{shard: i, sql: sql}
	}
	res, err := s.writeLocked(writes)
	if err == nil && msg != "" {
		res.Message = msg
	}
	return res, err
}

// shardWrite is one statement bound for one shard's leader.
type shardWrite struct {
	shard int
	sql   string
}

// writeLocked runs each write, in shard order, on its shard's leader; the
// caller holds the router's DML lock. Every target must be reachable before
// anything executes: the leaders are acquired first — a cached connection
// pinged, a missing one dialed — and a known-dead shard refuses the whole
// statement up front with a retryable error rather than leaving the cluster
// half-applied. Both phases run concurrently, one goroutine per shard, so a
// multi-shard write waits for one shard round trip (and WAL fsync), not one
// per shard. Affected counts and stats are summed, the message is the first
// shard's that has one, and the first error in shard order is reported. A
// multi-shard write is not atomic: when one shard fails, the others may
// have applied their part.
func (s *session) writeLocked(writes []shardWrite) (*wire.Result, error) {
	errs := make([]error, len(writes))
	each(len(writes), func(k int) { errs[k] = s.ensureLeader(writes[k].shard) })
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	results := make([]*wire.Result, len(writes))
	each(len(writes), func(k int) { results[k], errs[k] = s.writeShard(writes[k].shard, writes[k].sql) })
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	out := &wire.Result{}
	for _, res := range results {
		out.Affected += res.Affected
		addStats(&out.Stats, res.Stats)
		if out.Message == "" {
			out.Message = res.Message
		}
	}
	return out, nil
}

// each runs f(0), …, f(n-1) concurrently, one goroutine each, and waits for
// all of them; a single call runs on the caller's goroutine.
func each(n int, f func(k int)) {
	if n == 1 {
		f(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for k := 0; k < n; k++ {
		go func(k int) {
			defer wg.Done()
			f(k)
		}(k)
	}
	wg.Wait()
}

// firstErr returns the first non-nil error of errs.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// readAny runs one statement on the first reachable shard, degrading from
// leader to replica per shard — for catalog reads any shard's answer is
// authoritative, since DDL fans out to all of them.
func (s *session) readAny(sql string) (*wire.Result, error) {
	var lastErr error
	for i := range s.r.shards {
		if ok, _ := s.r.shards[i].available(); ok {
			c, err := s.leaderClient(i)
			if err == nil {
				res, err := c.Query(sql)
				if err == nil {
					return res, nil
				}
				var se *wire.ServerError
				if errors.As(err, &se) {
					return nil, se
				}
				s.dropLeader(i)
			}
			lastErr = err
		}
		c, err := s.replicaClient(i)
		if err != nil {
			lastErr = err
			continue
		}
		res, err := c.Query(sql)
		if err == nil {
			return res, nil
		}
		var se *wire.ServerError
		if errors.As(err, &se) {
			return nil, se
		}
		s.dropReplica(i)
		lastErr = err
	}
	return nil, fmt.Errorf("cluster: no shard reachable: %w", lastErr)
}

func (s *session) createTable(st query.CreateTable) (*wire.Result, error) {
	if len(st.Cols) == 0 {
		return nil, fmt.Errorf("cluster: CREATE TABLE needs at least one column")
	}
	key := st.Cols[0]
	if key.Uncertain {
		return nil, fmt.Errorf("cluster: partition key %q (the first column) must be certain", key.Name)
	}
	s.r.dml.Lock()
	defer s.r.dml.Unlock()
	if s.r.man.Lookup(st.Name) != nil {
		return nil, fmt.Errorf("cluster: table %q already exists", st.Name)
	}
	shardStmt := st
	shardStmt.Cols = append(append([]core.Column{}, st.Cols...), core.Column{Name: GseqCol, Type: core.IntType})
	rendered, err := query.Render(shardStmt)
	if err != nil {
		return nil, err
	}
	res, err := s.fanoutWriteLocked(nil, rendered, "")
	if err != nil {
		return nil, err
	}
	entry := TableEntry{Name: st.Name, KeyCol: key.Name}
	for _, c := range st.Cols {
		entry.Cols = append(entry.Cols, c.Name)
	}
	s.r.man.Tables = append(s.r.man.Tables, entry)
	if err := WriteManifest(s.r.cfg.FS, s.r.cfg.Dir, s.r.man); err != nil {
		return nil, err
	}
	s.r.gseq[st.Name] = 0
	return res, nil
}

func (s *session) dropTable(st query.Drop) (*wire.Result, error) {
	s.r.dml.Lock()
	defer s.r.dml.Unlock()
	if s.r.man.Lookup(st.Name) == nil {
		return nil, fmt.Errorf("cluster: no table %q", st.Name)
	}
	res, err := s.fanoutWriteLocked(nil, "DROP TABLE "+st.Name, "")
	if err != nil {
		return nil, err
	}
	for i, e := range s.r.man.Tables {
		if e.Name == st.Name {
			s.r.man.Tables = append(s.r.man.Tables[:i], s.r.man.Tables[i+1:]...)
			break
		}
	}
	if err := WriteManifest(s.r.cfg.FS, s.r.cfg.Dir, s.r.man); err != nil {
		return nil, err
	}
	delete(s.r.gseq, st.Name)
	return res, nil
}

func (s *session) deleteRows(st query.Delete) (*wire.Result, error) {
	entry := s.r.man.Lookup(st.Table)
	if entry == nil {
		return nil, fmt.Errorf("cluster: no table %q", st.Table)
	}
	rendered, err := query.Render(st)
	if err != nil {
		return nil, err
	}
	targets := s.pruneTargets(entry, st.Where)
	res, err := s.fanoutWrite(targets, rendered, "")
	if err != nil {
		return nil, err
	}
	if res.Message == "" || len(targets) != 1 {
		res.Message = fmt.Sprintf("deleted %d", res.Affected)
	}
	return res, nil
}

func (s *session) insert(sql string, st query.Insert) (*wire.Result, error) {
	entry := s.r.man.Lookup(st.Table)
	if entry == nil {
		return nil, fmt.Errorf("cluster: no table %q", st.Table)
	}
	s.r.dml.Lock()
	defer s.r.dml.Unlock()
	next, err := s.nextSeqLocked(st.Table)
	if err != nil {
		return nil, err
	}
	stmts, advanced, err := SplitInsert(sql, st, entry.KeyCol, len(s.r.shards), next)
	if err != nil {
		return nil, err
	}
	// Every sequence handed out is spent, whether or not the write lands:
	// one shard may apply its rows while another refuses, and reissuing
	// their numbers would break the merge's insertion-order tie-break.
	// Gaps are harmless.
	s.r.gseq[st.Table] = advanced
	writes := make([]shardWrite, 0, len(stmts))
	for i, sql := range stmts {
		writes = append(writes, shardWrite{shard: i, sql: sql})
	}
	sort.Slice(writes, func(a, b int) bool { return writes[a].shard < writes[b].shard })
	out, err := s.writeLocked(writes)
	if err != nil {
		return nil, err
	}
	out.Message = fmt.Sprintf("inserted %d", out.Affected)
	return out, nil
}

// nextSeqLocked returns the table's next unissued sequence, recovering it
// from the shards' max _gseq after a router restart. Recovery reads each
// shard (replica fallback included), so a freshly restarted router can
// resume issuing sequences above every live row's.
func (s *session) nextSeqLocked(table string) (int64, error) {
	if next, ok := s.r.gseq[table]; ok {
		return next, nil
	}
	probe := fmt.Sprintf("SELECT %s FROM %s ORDER BY %s DESC LIMIT 1", GseqCol, table, GseqCol)
	var next int64
	for i := range s.r.shards {
		res, err := s.shardRead(i, probe)
		if err != nil {
			return 0, fmt.Errorf("cluster: recovering %s sequence: %w", table, err)
		}
		for _, row := range res.Table.Rows {
			if len(row.Cells) == 1 && row.Cells[0].Kind == wire.CellValue {
				if g := row.Cells[0].Value.I; g+1 > next {
					next = g + 1
				}
			}
		}
	}
	s.r.gseq[table] = next
	return next, nil
}

// shardRead runs one read on a specific shard, leader first, degrading to
// its replica.
func (s *session) shardRead(i int, sql string) (*wire.Result, error) {
	if ok, _ := s.r.shards[i].available(); ok {
		c, err := s.leaderClient(i)
		if err == nil {
			res, err := c.Query(sql)
			if err == nil {
				return res, nil
			}
			var se *wire.ServerError
			if errors.As(err, &se) {
				return nil, se
			}
			s.dropLeader(i)
		}
	}
	c, err := s.replicaClient(i)
	if err != nil {
		return nil, err
	}
	res, err := c.Query(sql)
	if err != nil {
		var se *wire.ServerError
		if errors.As(err, &se) {
			return nil, se
		}
		s.dropReplica(i)
		return nil, &errShardUnavailable{shard: i, addr: s.r.shards[i].spec.Replica, cause: err}
	}
	return res, nil
}

// pruneTargets narrows a statement's shard set: an equality conjunct on the
// partition key means only the key's hash shard can hold matching rows.
func (s *session) pruneTargets(entry *TableEntry, where []query.Cond) []int {
	for _, c := range where {
		if c.Kind != query.CondCmp || c.Op != region.EQ {
			continue
		}
		var lit core.Value
		switch {
		case c.Left.IsCol && c.Left.Col == entry.KeyCol && !c.Right.IsCol:
			lit = c.Right.Lit
		case c.Right.IsCol && c.Right.Col == entry.KeyCol && !c.Left.IsCol:
			lit = c.Left.Lit
		default:
			continue
		}
		return []int{Partition(lit, len(s.r.shards))}
	}
	targets := make([]int, len(s.r.shards))
	for i := range targets {
		targets[i] = i
	}
	return targets
}

// healthResult composes the router's HEALTH report: the partition map size
// and each shard's availability.
func (r *Router) healthResult() *wire.Result {
	var b strings.Builder
	r.dml.Lock()
	tables := len(r.man.Tables)
	r.dml.Unlock()
	fmt.Fprintf(&b, "router: %d shards, %d tables\n", len(r.shards), tables)
	for i, st := range r.shards {
		status := "up"
		if st.down() {
			status = "down"
		}
		rep := ""
		if st.spec.Replica != "" {
			rep = fmt.Sprintf(" (replica %s)", st.spec.Replica)
		}
		fmt.Fprintf(&b, "shard %d: %s %s%s\n", i, st.spec.Addr, status, rep)
	}
	return &wire.Result{Message: strings.TrimRight(b.String(), "\n")}
}

// addStats sums shard-side execution counters into the router's result —
// the cluster-wide cost of the statement.
func addStats(dst *wire.Stats, src wire.Stats) {
	dst.Rows += src.Rows
	dst.LatencyMicros += src.LatencyMicros
	dst.WALBytes += src.WALBytes
	dst.IndexProbes += src.IndexProbes
	dst.IndexPruned += src.IndexPruned
	dst.PlannerFallbacks += src.PlannerFallbacks
	dst.WALFsyncs += src.WALFsyncs
	dst.WALGroupSize += src.WALGroupSize
	dst.TxnConflicts += src.TxnConflicts
	dst.Rejections += src.Rejections
	dst.ShedBytes += src.ShedBytes
	dst.QueueWaitMicros += src.QueueWaitMicros
	dst.VecTuples += src.VecTuples
	dst.ScalarTuples += src.ScalarTuples
}
