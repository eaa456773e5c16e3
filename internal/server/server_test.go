package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"probdb/internal/wire"
)

func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestServerEndToEnd is the subsystem's acceptance test: 16 concurrent
// clients against one server, each creating its own table, inserting
// Gaussian pdfs, and selecting with PROB thresholds; then a graceful
// shutdown that leaves no goroutines behind.
func TestServerEndToEnd(t *testing.T) {
	before := runtime.NumGoroutine()
	s := startServer(t, Config{
		Workers:      4,
		MaxConns:     32,
		QueryTimeout: 30 * time.Second,
		DataDir:      t.TempDir(),
	})
	addr := s.Addr().String()

	const clients = 16
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			errs <- runClient(addr, id)
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	// All 16 tables exist server-side before shutdown.
	if got := len(s.Engine().DB().TableNames()); got != clients {
		t.Fatalf("tables in catalog: %d, want %d", got, clients)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// A connection after shutdown must be refused.
	if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		conn.Close()
		t.Fatal("post-shutdown dial succeeded")
	}

	// Zero goroutine leaks: give runtime-internal goroutines a moment to
	// unwind, then compare against the pre-server baseline.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d -> %d\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// runClient drives one session: ping, private CREATE/INSERT/SELECT with a
// PROB threshold, checking both the row content and that the statement
// stats survive the network boundary.
func runClient(addr string, id int) error {
	c, err := wire.Dial(addr)
	if err != nil {
		return fmt.Errorf("client %d: dial: %w", id, err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		return fmt.Errorf("client %d: ping: %w", id, err)
	}

	table := fmt.Sprintf("readings%d", id)
	if _, err := c.Query(fmt.Sprintf("CREATE TABLE %s (rid INT, value FLOAT UNCERTAIN)", table)); err != nil {
		return fmt.Errorf("client %d: create: %w", id, err)
	}
	res, err := c.Query(fmt.Sprintf(
		"INSERT INTO %s (rid, value) VALUES (1, GAUSSIAN(20, 5)), (2, GAUSSIAN(25, 4)), (3, GAUSSIAN(13, 1))", table))
	if err != nil {
		return fmt.Errorf("client %d: insert: %w", id, err)
	}
	if res.Affected != 3 {
		return fmt.Errorf("client %d: insert affected %d, want 3", id, res.Affected)
	}
	if res.Stats.WALBytes == 0 {
		return fmt.Errorf("client %d: insert stats report no WAL bytes: %+v", id, res.Stats)
	}

	// Checkpoint so the table is at rest: the SELECT still reads memory.
	if _, err := c.Query("CHECKPOINT"); err != nil {
		return fmt.Errorf("client %d: checkpoint: %w", id, err)
	}

	// Flooring at value < 20 drops sensor 2.
	res, err = c.Query(fmt.Sprintf(
		"SELECT rid FROM %s WHERE value < 20 AND PROB(value) > 0.4 ORDER BY PROB(value) DESC", table))
	if err != nil {
		return fmt.Errorf("client %d: select: %w", id, err)
	}
	if res.Table == nil || len(res.Table.Rows) != 2 {
		return fmt.Errorf("client %d: select rows %v, want 2", id, res.Table)
	}
	if res.Stats.Rows != 2 {
		return fmt.Errorf("client %d: stats rows %d, want 2", id, res.Stats.Rows)
	}

	// A bad statement yields a server error, not a dead connection.
	if _, err := c.Query("SELECT * FROM no_such_table"); err == nil {
		return fmt.Errorf("client %d: bad query succeeded", id)
	} else {
		var se *wire.ServerError
		if !errors.As(err, &se) {
			return fmt.Errorf("client %d: bad query error is not a ServerError: %v", id, err)
		}
	}
	// The session survives the error.
	if err := c.Ping(); err != nil {
		return fmt.Errorf("client %d: ping after error: %w", id, err)
	}
	return nil
}

// TestServerQueryPanic: a panicking query costs its own connection an Error
// frame and a disconnect — not the server, not other sessions.
func TestServerQueryPanic(t *testing.T) {
	s := startServer(t, Config{Workers: 2})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	s.Engine().execHook = func(sql string) {
		if strings.Contains(sql, "boom_trigger") {
			panic("injected query panic")
		}
	}
	addr := s.Addr().String()

	victim, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Close()
	bystander, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer bystander.Close()
	if err := bystander.Ping(); err != nil {
		t.Fatal(err)
	}

	_, err = victim.Query("SELECT * FROM boom_trigger")
	var se *wire.ServerError
	if !errors.As(err, &se) || !strings.Contains(se.Msg, "panicked") {
		t.Fatalf("panicking query error = %v, want ServerError mentioning the panic", err)
	}
	// The panicking session's connection is closed afterwards…
	victim.SetCallTimeout(2 * time.Second)
	if err := victim.Ping(); err == nil {
		t.Fatal("connection survived a panicking query")
	}
	// …while the rest of the server keeps serving.
	if err := bystander.Ping(); err != nil {
		t.Fatalf("bystander session broken by another session's panic: %v", err)
	}
	if _, err := bystander.Query("SHOW TABLES"); err != nil {
		t.Fatalf("bystander query after panic: %v", err)
	}
}

// TestServerMaxConns: the connection cap turns extra clients away with an
// Error frame instead of hanging them.
func TestServerMaxConns(t *testing.T) {
	s := startServer(t, Config{MaxConns: 2, DataDir: ""})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	addr := s.Addr().String()

	c1, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	// Prove both sessions are registered before the third dial.
	if err := c1.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := c2.Ping(); err != nil {
		t.Fatal(err)
	}

	c3, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if err := c3.Ping(); err == nil {
		t.Fatal("third connection admitted past MaxConns=2")
	} else {
		var se *wire.ServerError
		if !errors.As(err, &se) {
			t.Fatalf("refusal error: %v", err)
		}
	}
}

// TestServerQueryTimeout: a statement that outlives the per-query budget
// returns a timeout error and the session keeps working.
func TestServerQueryTimeout(t *testing.T) {
	s := startServer(t, Config{Workers: 1, QueueDepth: 1, QueryTimeout: 150 * time.Millisecond})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	addr := s.Addr().String()

	// Occupy the single worker with a statement large enough to exceed the
	// timeout: a MONTE CARLO-free engine executes fast, so instead pile up
	// queued work from a second session and let queue admission time out.
	hog, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer hog.Close()
	if _, err := hog.Query("CREATE TABLE t (k INT, x FLOAT UNCERTAIN)"); err != nil {
		t.Fatal(err)
	}
	// A self-cross-join with enough rows keeps one worker busy for a while.
	for i := 0; i < 64; i++ {
		if _, err := hog.Query(fmt.Sprintf("INSERT INTO t (k, x) VALUES (%d, GAUSSIAN(%d, 2))", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() {
		_, err := hog.Query("SELECT COUNT(*) FROM t a, t b, t c WHERE a.k < b.k AND b.k < c.k")
		done <- err
	}()

	// While the worker grinds, a second session's query waits; either queue
	// admission or execution wait must end in a timeout error frame.
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, err = c.Query("SHOW TABLES")
	if err == nil {
		// The hog may have finished first on a fast machine; accept success
		// only if it really was fast.
		if time.Since(start) > time.Second {
			t.Fatal("slow query succeeded without timing out")
		}
	} else {
		var se *wire.ServerError
		if !errors.As(err, &se) {
			t.Fatalf("timeout error: %v", err)
		}
	}
	<-done // let the hog finish before shutdown
}

// TestServerQueueDeadline: a statement whose deadline expires while every
// Workers slot is held fails with ErrQueueTimeout at the deadline — not
// when a slot frees — and never executes.
func TestServerQueueDeadline(t *testing.T) {
	s := startServer(t, Config{Workers: 1, QueryTimeout: 300 * time.Millisecond})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	addr := s.Addr().String()
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetCallTimeout(5 * time.Second)
	if _, err := c.Query("CREATE TABLE q (k INT)"); err != nil {
		t.Fatal(err)
	}

	holding, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock() // before Shutdown, which waits for the held statement
	s.Engine().execHook = func(sql string) {
		if sql == "SELECT * FROM slot_holder" {
			close(holding)
			<-release
		}
	}
	holder, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	holderDone := make(chan struct{})
	go func() {
		defer close(holderDone)
		holder.Query("SELECT * FROM slot_holder") //nolint:errcheck // fails: no such table
	}()
	<-holding

	_, err = c.Query("INSERT INTO q (k) VALUES (1)")
	var se *wire.ServerError
	if !errors.As(err, &se) || se.Code != wire.ErrQueueTimeout {
		t.Fatalf("INSERT behind a held slot: err = %v, want ErrQueueTimeout", err)
	}
	if !se.Retryable() {
		t.Fatal("queue-deadline refusal must be retryable")
	}
	unblock()
	<-holderDone

	res, err := c.Query("SELECT k FROM q")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Table.Rows); n != 0 {
		t.Fatalf("the timed-out INSERT applied: %d rows", n)
	}
}

// TestServerExecDeadline: a statement that holds its Workers slot past
// QueryTimeout is cancelled by the server's one deadline timer and answers
// the timeout error — alone, twice in a row (the timer re-arms after it
// fires), and behind a statement admitted earlier that finishes in time
// (the timer, armed for that one's deadline, moves on to the next) — and
// the session stays usable.
func TestServerExecDeadline(t *testing.T) {
	s := startServer(t, Config{Workers: 2, QueryTimeout: 200 * time.Millisecond})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	dial := func() *wire.Client {
		c, err := wire.Dial(s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		c.SetCallTimeout(5 * time.Second)
		return c
	}
	c, early := dial(), dial()
	defer c.Close()
	defer early.Close()
	if _, err := c.Query("CREATE TABLE d (k INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query("INSERT INTO d (k) VALUES (1), (2)"); err != nil {
		t.Fatal(err)
	}
	s.Engine().execHook = func(sql string) {
		switch sql {
		case "SELECT k FROM d":
			time.Sleep(400 * time.Millisecond)
		case "SELECT k FROM d WHERE k = 1":
			time.Sleep(100 * time.Millisecond)
		}
	}
	wantTimeout := func(round string) {
		t.Helper()
		start := time.Now()
		_, err := c.Query("SELECT k FROM d")
		var se *wire.ServerError
		if !errors.As(err, &se) || !strings.Contains(se.Msg, "query timeout") {
			t.Fatalf("%s: err = %v, want the query timeout", round, err)
		}
		if el := time.Since(start); el > 2*time.Second {
			t.Fatalf("%s: the timeout took %v", round, el)
		}
	}
	wantTimeout("first")
	wantTimeout("second")

	earlyErr := make(chan error, 1)
	go func() {
		_, err := early.Query("SELECT k FROM d WHERE k = 1")
		earlyErr <- err
	}()
	time.Sleep(20 * time.Millisecond)
	wantTimeout("behind an earlier statement")
	if err := <-earlyErr; err != nil {
		t.Fatalf("the earlier statement: %v", err)
	}

	res, err := c.Query("SELECT k FROM d WHERE k = 2")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Table.Rows); n != 1 {
		t.Fatalf("rows after the timeouts: %d, want 1", n)
	}
}
