package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"probdb/internal/cluster"
	"probdb/internal/core"
	"probdb/internal/server"
	"probdb/internal/wire"
)

// harness is one differential fixture: a 3-shard cluster behind a router
// and an identical single-node reference, fed the same statements.
type harness struct {
	t      *testing.T
	shards []*server.Server
	router *cluster.Router
	ref    *server.Server
	dir    string
	specs  []cluster.ShardSpec
}

func newHarness(t *testing.T, nshards int) *harness {
	t.Helper()
	return newHarnessVia(t, nshards, func(_ int, addr string) string { return addr })
}

// newHarnessVia is newHarness with the router reaching shard i at
// route(i, its address) — a proxy in front of it, say.
func newHarnessVia(t *testing.T, nshards int, route func(i int, addr string) string) *harness {
	t.Helper()
	h := &harness{t: t, dir: t.TempDir()}
	for i := 0; i < nshards; i++ {
		s := startShard(t, t.TempDir())
		h.shards = append(h.shards, s)
		h.specs = append(h.specs, cluster.ShardSpec{Addr: route(i, s.Addr().String())})
	}
	h.router = startRouter(t, h.dir, h.specs)
	h.ref = startShard(t, t.TempDir())
	t.Cleanup(func() {
		h.router.Shutdown(context.Background()) //nolint:errcheck
		for _, s := range h.shards {
			if s != nil {
				s.Shutdown(context.Background()) //nolint:errcheck
			}
		}
		h.ref.Shutdown(context.Background()) //nolint:errcheck
	})
	return h
}

func startShard(t *testing.T, dir string) *server.Server {
	t.Helper()
	s, err := server.New(server.Config{
		Addr: "127.0.0.1:0", DataDir: dir, ShipWAL: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	return s
}

func startRouter(t *testing.T, dir string, specs []cluster.ShardSpec) *cluster.Router {
	t.Helper()
	r, err := cluster.NewRouter(cluster.Config{
		Addr: "127.0.0.1:0", Dir: dir, Shards: specs,
		DialTimeout: time.Second, RetryAfterHint: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	return r
}

// exec runs one statement on both sides and fails the test if either
// errors.
func (h *harness) exec(sql string) {
	h.t.Helper()
	for _, addr := range []string{h.router.Addr().String(), h.ref.Addr().String()} {
		c, err := wire.Dial(addr)
		if err != nil {
			h.t.Fatal(err)
		}
		_, err = c.Query(sql)
		c.Close() //nolint:errcheck
		if err != nil {
			h.t.Fatalf("%s on %s: %v", sql, addr, err)
		}
	}
}

// render drains one SELECT on addr and renders the streamed result exactly
// as a client would: header line, then one line per row, in arrival order.
func render(t *testing.T, addr, sql string) string {
	t.Helper()
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck
	st, err := c.QueryStream(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	var b strings.Builder
	b.WriteString(wire.HeaderLine(st.Name(), st.Columns()))
	b.WriteByte('\n')
	for {
		rows, err := st.NextBatch()
		if err != nil {
			t.Fatalf("%s: mid-stream: %v", sql, err)
		}
		if rows == nil {
			break
		}
		for _, r := range rows {
			b.WriteString(wire.RenderRow(st.Columns(), r))
			b.WriteByte('\n')
		}
	}
	if _, err := st.Result(); err != nil {
		t.Fatalf("%s: result: %v", sql, err)
	}
	return b.String()
}

// diff asserts a SELECT renders byte-identically through the router and on
// the single-node reference.
func (h *harness) diff(sql string) {
	h.t.Helper()
	got := render(h.t, h.router.Addr().String(), sql)
	want := render(h.t, h.ref.Addr().String(), sql)
	if got != want {
		h.t.Fatalf("%s diverged\n--- router ---\n%s--- single node ---\n%s", sql, got, want)
	}
}

// seed loads the standard differential corpus: uncertain temps (some with
// partial mass, giving Pr(exists) < 1 and PROB-floor selectivity),
// duplicate scores (sort ties across shards), NULLs, and strings.
func (h *harness) seed() {
	h.t.Helper()
	h.exec(`CREATE TABLE readings (site INT, temp FLOAT UNCERTAIN, label TEXT, score FLOAT)`)
	for i := 0; i < 40; i += 4 {
		h.exec(fmt.Sprintf(
			`INSERT INTO readings (site, temp, label, score) VALUES `+
				`(%d, GAUSSIAN(%d.0, 4.0), 'n%02d', %d.5), `+
				`(%d, HISTOGRAM((10, 20, 30):(0.3, 0.4)), 'n%02d', %d.5), `+
				`(%d, UNIFORM(0.0, 50.0), 'dup', 7.5), `+
				`(%d, HISTOGRAM((0, 5):(0.25)), NULL, NULL)`,
			i, 10+i, i, i%3,
			i+1, i+1, i%3,
			i+2,
			i+3))
	}
	h.exec(`DELETE FROM readings WHERE site = 6`)
	h.exec(`INSERT INTO readings (site, temp, label, score) VALUES (6, GAUSSIAN(16.0, 4.0), 'back', 7.5)`)
	h.exec(`ANALYZE readings`)
}

var diffQueries = []string{
	`SELECT * FROM readings`,
	`SELECT site, label FROM readings`,
	`SELECT site, score FROM readings WHERE score > 1.0`,
	`SELECT * FROM readings WHERE temp > 18.0`,
	`SELECT * FROM readings WHERE PROB(temp) >= 0.5`,
	`SELECT site, label FROM readings WHERE PROB(temp IN [5, 25]) >= 0.3`,
	`SELECT site, score FROM readings ORDER BY score LIMIT 7`,
	`SELECT site, score FROM readings ORDER BY score DESC LIMIT 7`,
	`SELECT site FROM readings ORDER BY score DESC LIMIT 9`,
	`SELECT label, site FROM readings ORDER BY label`,
	`SELECT * FROM readings ORDER BY PROB(temp) DESC LIMIT 5`,
	`SELECT site, temp FROM readings ORDER BY PROB(temp) LIMIT 12`,
	`SELECT * FROM readings WHERE site = 7`,
	`SELECT * FROM readings WHERE site = 9999`,
	`SELECT site FROM readings LIMIT 10`,
	`SELECT * FROM readings WHERE score > 5.0 ORDER BY score DESC LIMIT 3`,
	`SELECT site, score FROM readings ORDER BY score`,
}

// checkExistence streams one SELECT on each node's engine — the reference
// and every shard — and fails the test unless every result tuple records
// the product of its nodes' masses as its existence probability.
func (h *harness) checkExistence(sql string) {
	h.t.Helper()
	for _, s := range append([]*server.Server{h.ref}, h.shards...) {
		_, _, err := s.Engine().ExecuteStream(context.Background(), sql, func(_ *core.Table, b []*core.Tuple) error {
			return core.CheckExistence(b)
		})
		if err != nil {
			h.t.Fatalf("%s on %s: %v", sql, s.Addr(), err)
		}
	}
}

// TestClusterDifferential is the tentpole acceptance test: every supported
// SELECT shape — plain scans, filters, PROB floors, ORDER BY ... LIMIT in
// both directions, partition-key pruning — must come back from a 3-shard
// scatter-gather byte-identical to a single node fed the same DML, from
// tuples whose existence probabilities are their nodes' mass products.
func TestClusterDifferential(t *testing.T) {
	h := newHarness(t, 3)
	h.seed()
	for _, q := range diffQueries {
		h.diff(q)
		h.checkExistence(q)
	}
}

// TestClusterDifferentialConcurrent runs the whole differential corpus from
// 8 goroutines at once — concurrent sessions scatter over separate shard
// connections and must not perturb each other (the -race build is the
// point).
func TestClusterDifferentialConcurrent(t *testing.T) {
	h := newHarness(t, 3)
	h.seed()
	want := map[string]string{}
	for _, q := range diffQueries {
		want[q] = render(t, h.ref.Addr().String(), q)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, q := range diffQueries {
				got := render(t, h.router.Addr().String(), diffQueries[(i+g)%len(diffQueries)])
				_ = q
				exp := want[diffQueries[(i+g)%len(diffQueries)]]
				if got != exp {
					errs <- fmt.Sprintf("goroutine %d: %s diverged", g, diffQueries[(i+g)%len(diffQueries)])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestClusterRouterRestart reopens the router over its manifest and checks
// both the partition map and the _gseq sequence survive: rows inserted
// after the restart must still merge in insertion order behind rows from
// before it.
func TestClusterRouterRestart(t *testing.T) {
	h := newHarness(t, 3)
	h.seed()
	if err := h.router.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	h.router = startRouter(t, h.dir, h.specs)
	h.exec(`INSERT INTO readings (site, temp, label, score) VALUES ` +
		`(50, GAUSSIAN(25.0, 1.0), 'post', 7.5), (51, GAUSSIAN(26.0, 1.0), 'post', 0.5)`)
	for _, q := range []string{
		`SELECT * FROM readings`,
		`SELECT site, score FROM readings ORDER BY score LIMIT 11`,
		`SELECT site, label FROM readings ORDER BY label DESC`,
	} {
		h.diff(q)
	}
}

// TestClusterShardCountMismatch: a manifest partitioned across 3 shards
// must refuse to open with a different shard list size.
func TestClusterShardCountMismatch(t *testing.T) {
	h := newHarness(t, 2)
	h.exec(`CREATE TABLE t (id INT, v FLOAT)`)
	if err := h.router.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, err := cluster.NewRouter(cluster.Config{
		Addr: "127.0.0.1:0", Dir: h.dir, Shards: h.specs[:1],
	})
	if err == nil || !strings.Contains(err.Error(), "repartitioning") {
		t.Fatalf("shard-count mismatch accepted: %v", err)
	}
	h.router = startRouter(t, h.dir, h.specs) // Cleanup expects a live router
}

// TestClusterMaxConns: the router's connection cap turns extra clients
// away with an Error frame instead of hanging them.
func TestClusterMaxConns(t *testing.T) {
	shard := startShard(t, t.TempDir())
	defer shard.Shutdown(context.Background()) //nolint:errcheck
	r, err := cluster.NewRouter(cluster.Config{
		Addr: "127.0.0.1:0", Dir: t.TempDir(), MaxConns: 2,
		Shards: []cluster.ShardSpec{{Addr: shard.Addr().String()}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Shutdown(context.Background()) //nolint:errcheck
	addr := r.Addr().String()

	for i := 0; i < 2; i++ {
		c, err := wire.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close() //nolint:errcheck
		// Prove the session is registered before the next dial.
		if err := c.Ping(); err != nil {
			t.Fatal(err)
		}
	}
	c3, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close() //nolint:errcheck
	err = c3.Ping()
	var se *wire.ServerError
	if !errors.As(err, &se) || se.Msg != "router: too many connections" {
		t.Fatalf("third connection past MaxConns=2: err = %v, want the router's refusal", err)
	}
}

// TestClusterRefusals checks the router's statement surface: reserved
// column, unknown table, transactions, joins, aggregates.
func TestClusterRefusals(t *testing.T) {
	h := newHarness(t, 2)
	h.exec(`CREATE TABLE t (id INT, v FLOAT UNCERTAIN)`)
	c, err := wire.Dial(h.router.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck
	cases := []struct{ sql, want string }{
		{`SELECT _gseq FROM t`, "reserved"},
		{`CREATE TABLE u (_gseq INT, v FLOAT)`, "reserved"},
		{`CREATE TABLE u (v FLOAT UNCERTAIN)`, "must be certain"},
		{`SELECT * FROM nope`, `no table "nope"`},
		{`INSERT INTO t (v) VALUES (GAUSSIAN(1.0, 1.0))`, "partition key"},
		{`BEGIN`, "transactions"},
		{`SELECT SUM(v) FROM t`, "aggregates"},
		{`SELECT * FROM t, t`, "joins"},
		{`EXPLAIN SELECT * FROM t`, "EXPLAIN"},
		// Refused at the router's own parse: the literal never reaches a shard.
		{`INSERT INTO t (id, v) VALUES (1, GEOMETRIC(1e-9))`, "dist: GEOMETRIC p 1e-09 needs more than 65536 points"},
	}
	for _, tc := range cases {
		_, err := c.Query(tc.sql)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.sql, err, tc.want)
		}
	}
	// The session must still be usable after every refusal.
	if res, err := c.Query(`SELECT * FROM t`); err != nil || len(res.Table.Rows) != 0 {
		t.Fatalf("session after refusals: %v, %v; want no rows", res, err)
	}
	// HEALTH through the router reports the shard map, not an engine.
	res, err := c.Query(`HEALTH`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Message, "router: 2 shards") {
		t.Fatalf("router HEALTH = %q", res.Message)
	}
}

// killShard crash-kills one shard: connections are severed immediately (an
// already-canceled shutdown context), the closest in-process stand-in for
// kill -9.
func (h *harness) killShard(i int) {
	h.t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	h.shards[i].Shutdown(ctx) //nolint:errcheck
	h.shards[i] = nil
}

// streamGate is a TCP proxy in front of one shard that can hold the shard's
// result stream. Once armed, it forwards the first RowBatch frame the shard
// sends and then drains every later frame without forwarding it, so the
// router has seen the stream start and can never see it end. When the shard
// dies the proxy closes the router's side of the connection.
type streamGate struct {
	ln     net.Listener
	target string
	armed  atomic.Bool
	held   chan struct{} // closed once an armed gate forwarded a batch
	once   sync.Once
}

func newStreamGate(t *testing.T, target string) *streamGate {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	g := &streamGate{ln: ln, target: target, held: make(chan struct{})}
	t.Cleanup(func() { ln.Close() }) //nolint:errcheck
	go func() {
		for {
			router, err := ln.Accept()
			if err != nil {
				return
			}
			shard, err := net.Dial("tcp", g.target)
			if err != nil {
				router.Close() //nolint:errcheck
				continue
			}
			go func() {
				io.Copy(shard, router) //nolint:errcheck
				shard.Close()          //nolint:errcheck
			}()
			go g.pipe(shard, router)
		}
	}()
	return g
}

// pipe forwards the shard's frames to the router until an armed gate has
// let one batch through, and drains them after that.
func (g *streamGate) pipe(shard, router net.Conn) {
	defer router.Close() //nolint:errcheck
	holding := false
	for {
		ft, payload, err := wire.ReadFrame(shard)
		if err != nil {
			return
		}
		if holding {
			continue
		}
		if err := wire.WriteFrame(router, ft, payload); err != nil {
			return
		}
		if ft == wire.FrameRowBatch && g.armed.Load() {
			holding = true
			g.once.Do(func() { close(g.held) })
		}
	}
}

// TestClusterShardDeathMidStream kills one shard while a scatter-gather is
// mid-stream and asserts the client sees a typed, retryable
// ErrShardUnavailable — never a silent truncation. The doomed shard sits
// behind a streamGate that holds its stream after the first batch, so the
// kill always lands before the router has seen that shard's result end: the
// stream cannot finish first, however much the socket buffers hold.
func TestClusterShardDeathMidStream(t *testing.T) {
	var gate *streamGate
	h := newHarnessVia(t, 3, func(i int, addr string) string {
		if i != 1 {
			return addr
		}
		gate = newStreamGate(t, addr)
		return gate.ln.Addr().String()
	})
	c, err := wire.Dial(h.router.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck
	if _, err := c.Query(`CREATE TABLE big (id INT, pad TEXT, v FLOAT)`); err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("x", 500)
	for base := 0; base < 24000; base += 1500 {
		var sb strings.Builder
		sb.WriteString(`INSERT INTO big (id, pad, v) VALUES `)
		for i := base; i < base+1500; i++ {
			if i > base {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, '%s', %d.25)", i, pad, i)
		}
		if _, err := c.Query(sb.String()); err != nil {
			t.Fatal(err)
		}
	}

	gate.armed.Store(true)
	st, err := c.QueryStream(`SELECT * FROM big`)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until shard 1's stream is demonstrably underway and held, then
	// kill the shard out from under it. The gate stops accepting first, so
	// later dials to shard 1 are refused exactly as they are by a dead shard.
	select {
	case <-gate.held:
	case <-time.After(30 * time.Second):
		t.Fatal("shard 1 never sent a batch")
	}
	gate.ln.Close() //nolint:errcheck
	h.killShard(1)
	var got error
	for {
		rows, err := st.NextBatch()
		if err != nil {
			got = err
			break
		}
		if rows == nil {
			break
		}
	}
	var se *wire.ServerError
	if !errors.As(got, &se) {
		t.Fatalf("mid-stream shard death returned %v, want *wire.ServerError", got)
	}
	if se.Code != wire.ErrShardUnavailable {
		t.Fatalf("code = %v, want ErrShardUnavailable", se.Code)
	}
	if !se.Retryable() {
		t.Fatal("shard-unavailable must be retryable")
	}

	// Writes touching the dead shard are refused up front, typed the same.
	_, err = c.Query(`INSERT INTO big (id, v) VALUES (90001, 1.0)`)
	for i := 0; err == nil && i < 100; i++ {
		// The row may hash to a live shard; walk ids until one lands on
		// the dead shard's partition.
		_, err = c.Query(fmt.Sprintf(`INSERT INTO big (id, v) VALUES (%d, 1.0)`, 90002+i))
	}
	if !errors.As(err, &se) || se.Code != wire.ErrShardUnavailable {
		t.Fatalf("write to dead shard: %v, want ErrShardUnavailable", err)
	}
}
