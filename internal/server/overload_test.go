package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"probdb/internal/flakyconn"
	"probdb/internal/pipe"
	"probdb/internal/wire"
)

// waitNoLeaks polls until the goroutine count returns to the baseline or a
// deadline passes, then fails with a full stack dump.
func waitNoLeaks(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d -> %d\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func shutdownServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// TestHealth: the HEALTH statement answers through the wire with the
// engine's mode, budget accounting and admission depths, and also works on
// an embedded engine session.
func TestHealth(t *testing.T) {
	s := startServer(t, Config{Workers: 2, MemBudget: 1 << 20})
	defer shutdownServer(t, s)

	c, err := wire.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Query("HEALTH")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"mode: read-write", "memory: ", "colpdf-cache: ", "admission: read ", "sessions: 1/"} {
		if !strings.Contains(res.Message, want) {
			t.Errorf("HEALTH missing %q in:\n%s", want, res.Message)
		}
	}

	// Embedded path: an engine session answers HEALTH without a server.
	ses := s.Engine().NewSession()
	defer ses.Close()
	eres, err := ses.Execute("  health ; ")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(eres.Message, "mode: read-write") {
		t.Errorf("embedded HEALTH: %q", eres.Message)
	}

	// History is not a gauge: the report names no registry.
	if strings.Contains(res.Message, "registry") {
		t.Errorf("HEALTH still reports a history registry:\n%s", res.Message)
	}

	// A scan encodes the table's batches, and HEALTH counts their bytes.
	for _, q := range []string{
		"CREATE TABLE r (k INT, x FLOAT UNCERTAIN)",
		"INSERT INTO r (k, x) VALUES (1, GAUSSIAN(10, 4)), (2, UNIFORM(0, 30)), (3, GAUSSIAN(25, 1))",
		"SELECT k FROM r WHERE PROB(x IN [5, 15]) >= 0.3",
	} {
		if _, err := c.Query(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	if h := s.Engine().Health(); h.ColPDFBytes <= 0 || h.ColPDFMisses == 0 {
		t.Fatalf("after a scan: %d encoded bytes, %d misses", h.ColPDFBytes, h.ColPDFMisses)
	}
	res, err = c.Query("HEALTH")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(res.Message, "\n") {
		if strings.HasPrefix(line, "colpdf-cache: ") && (strings.HasPrefix(line, "colpdf-cache: 0 bytes") || strings.Contains(line, "shed")) {
			t.Errorf("HEALTH after a scan: %q", line)
		}
	}
}

// TestOverloadStress: greedy concurrent sorts against a deliberately small
// server memory budget. The invariants: the budget's high-water mark never
// exceeds the limit (no OOM growth), every refusal is a typed retryable
// error, reservations drain to zero, no operators or goroutines leak, and
// the server still answers once the storm passes.
func TestOverloadStress(t *testing.T) {
	before := runtime.NumGoroutine()
	opsBefore := pipe.OpenOperators()
	// Three queries (~4.1MiB each) fit in 16MiB; all four workers' queries
	// at once (~16.5MiB) collide — pressure comes from concurrency,
	// not from any one query being inherently too large. A tighter budget
	// starves them instead: the budget sheds the largest running query
	// first, so sorts that two or three at once overflow can cancel one
	// another until none finishes. Every SELECT streams with the engine
	// mutex released, so the workers' sorts really do overlap.
	const memBudget = 32 << 19
	s := startServer(t, Config{
		Workers: 4, MemBudget: memBudget, QueryTimeout: 20 * time.Second,
		DataDir: t.TempDir(), CheckpointBytes: -1,
	})
	addr := s.Addr().String()

	setup, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := setup.Query("CREATE TABLE big (k INT, v INT)"); err != nil {
		t.Fatal(err)
	}
	// 18000 tuples at 192 bytes of accounted cost each, plus 48 per sort
	// key: one ORDER BY holds ~4.1MiB in its Sort breaker for the whole
	// streaming phase (the projection after it streams), so four
	// overlapping queries bust the 16MiB budget. The table is large
	// enough that a sort outlasts a scheduler time slice: with one CPU,
	// queries over a smaller one can run back to back and never collide.
	const rows = 18000
	for lo := 0; lo < rows; lo += 500 {
		var b strings.Builder
		b.WriteString("INSERT INTO big (k, v) VALUES ")
		for i := lo; i < lo+500; i++ {
			if i > lo {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, %d)", i, (i*7919)%3000)
		}
		if _, err := setup.Query(b.String()); err != nil {
			t.Fatal(err)
		}
	}
	setup.Close()

	const clients = 16
	const iters = 8
	var (
		wg        sync.WaitGroup
		succeeded atomic.Uint64
		refused   atomic.Uint64
		hardFail  = make(chan error, clients)
	)
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := wire.Dial(addr)
			if err != nil {
				hardFail <- err
				return
			}
			defer c.Close()
			c.SetCallTimeout(30 * time.Second)
			for i := 0; i < iters; i++ {
				_, err := c.Query("SELECT k, v FROM big ORDER BY v")
				if err == nil {
					succeeded.Add(1)
					continue
				}
				var se *wire.ServerError
				if !errors.As(err, &se) || !se.Retryable() {
					hardFail <- fmt.Errorf("client %d: untyped overload failure: %v", id, err)
					return
				}
				refused.Add(1)
			}
		}(id)
	}
	wg.Wait()
	close(hardFail)
	for err := range hardFail {
		t.Fatal(err)
	}
	t.Logf("overload: %d queries succeeded, %d refused with typed retryable errors (shed %d bytes)",
		succeeded.Load(), refused.Load(), s.bud.ShedBytes())
	if refused.Load() == 0 {
		t.Fatal("no query ever hit the budget — the governor never engaged")
	}
	if succeeded.Load() == 0 {
		t.Fatal("every query was refused — degradation was total, not graceful")
	}

	if hw := s.bud.HighWater(); hw > memBudget {
		t.Fatalf("budget high-water %d exceeded the %d limit", hw, memBudget)
	}

	// Quiesced: every reservation must have been returned.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s.bud.Used() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("budget did not drain: %d bytes still reserved", s.bud.Used())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Service resumes: a fresh client's query succeeds and carries the
	// cumulative governance gauges in its stats.
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.QueryRetry("SELECT COUNT(*) FROM big", 5)
	if err != nil {
		t.Fatalf("service did not resume after overload: %v", err)
	}
	if res.Stats.Rejections == 0 && refused.Load() > 0 {
		// Admission never refused (budget did), so Rejections may be 0 —
		// but ShedBytes or the latency stat must still round-trip.
		_ = res
	}
	c.Close()

	shutdownServer(t, s)
	if got := pipe.OpenOperators(); got != opsBefore {
		t.Fatalf("operator leak: %d open before, %d after", opsBefore, got)
	}
	waitNoLeaks(t, before)
}

// TestGovernanceDifferential: with a budget generous enough to never
// trigger, the governed server must produce byte-identical results to an
// ungoverned one — accounting may observe, never perturb. Stats are zeroed
// before comparison (latency and queue wait are wall-clock, and the
// governance gauges exist only on the governed side by design).
func TestGovernanceDifferential(t *testing.T) {
	queries := []string{
		"CREATE TABLE d (k INT, x FLOAT UNCERTAIN)",
		"INSERT INTO d (k, x) VALUES (1, GAUSSIAN(10, 2)), (2, GAUSSIAN(20, 3)), (3, GAUSSIAN(30, 1))",
		"INSERT INTO d (k, x) VALUES (4, UNIFORM(0, 8)), (5, GAUSSIAN(15, 5))",
		"SELECT k, x FROM d ORDER BY k",
		"SELECT k FROM d WHERE x < 25 AND PROB(x) > 0.3 ORDER BY PROB(x) DESC",
		"SELECT COUNT(*) FROM d",
		"CREATE TABLE e (k INT, n INT)",
		"INSERT INTO e (k, n) VALUES (1, 100), (2, 200), (4, 400)",
		"SELECT d.k, e.n FROM d, e WHERE d.k = e.k ORDER BY e.n",
	}
	run := func(cfg Config) [][]byte {
		s := startServer(t, cfg)
		defer shutdownServer(t, s)
		c, err := wire.Dial(s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var out [][]byte
		for _, q := range queries {
			res, err := c.Query(q)
			if err != nil {
				t.Fatalf("%q: %v", q, err)
			}
			res.Stats = wire.Stats{}
			out = append(out, wire.EncodeResult(res))
		}
		return out
	}
	plain := run(Config{Workers: 2})
	governed := run(Config{Workers: 2, MemBudget: 1 << 40, SessionMem: 1 << 38, QueryMem: 1 << 36})
	for i := range queries {
		if string(plain[i]) != string(governed[i]) {
			t.Errorf("query %q: governed result diverges from ungoverned\nplain:    %x\ngoverned: %x",
				queries[i], plain[i], governed[i])
		}
	}
}

// TestDiskWatchdogReadOnly: when the (injected) free-space probe dips below
// the threshold the engine turns declared read-only — writes refuse with a
// typed retryable error, reads keep working, HEALTH reports the mode — and
// it recovers on its own once space returns above twice the threshold.
func TestDiskWatchdogReadOnly(t *testing.T) {
	var free atomic.Int64
	free.Store(1 << 30)
	s := startServer(t, Config{
		Workers:          2,
		DataDir:          t.TempDir(),
		MinDiskFree:      1000,
		DiskPollInterval: 5 * time.Millisecond,
		DiskFree:         func(string) (int64, error) { return free.Load(), nil },
	})
	defer shutdownServer(t, s)

	c, err := wire.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query("CREATE TABLE w (k INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query("INSERT INTO w (k) VALUES (1)"); err != nil {
		t.Fatal(err)
	}

	// Disk "fills up": the next poll must flip the engine read-only.
	free.Store(500)
	var se *wire.ServerError
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := c.Query("INSERT INTO w (k) VALUES (2)")
		if err != nil {
			if !errors.As(err, &se) {
				t.Fatalf("read-only refusal is not a ServerError: %v", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("watchdog never flipped the engine read-only")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if se.Code != wire.ErrReadOnly {
		t.Fatalf("refusal code %v, want ErrReadOnly (msg %q)", se.Code, se.Msg)
	}
	if !se.Retryable() {
		t.Fatal("declared read-only must be retryable")
	}

	// Reads and HEALTH still work while writes are refused.
	if _, err := c.Query("SELECT k FROM w"); err != nil {
		t.Fatalf("read failed in read-only mode: %v", err)
	}
	res, err := c.Query("HEALTH")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Message, "read-only (declared:") {
		t.Fatalf("HEALTH does not report declared read-only:\n%s", res.Message)
	}

	// Space recovers past the hysteresis point: writes resume.
	free.Store(2000)
	deadline = time.Now().Add(5 * time.Second)
	for {
		if _, err := c.Query("INSERT INTO w (k) VALUES (3)"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("engine never recovered from read-only after space returned")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerFlakyClients: a crowd of clients whose connections chunk,
// stall, and die mid-stream must each cost exactly one session. The server
// survives, a healthy client still gets full service, and nothing leaks.
func TestServerFlakyClients(t *testing.T) {
	before := runtime.NumGoroutine()
	s := startServer(t, Config{Workers: 2, MaxConns: 32, QueryTimeout: 10 * time.Second})
	addr := s.Addr().String()

	setup, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := setup.Query("CREATE TABLE f (k INT, x FLOAT UNCERTAIN)"); err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < 1500; lo += 500 {
		var b strings.Builder
		b.WriteString("INSERT INTO f (k, x) VALUES ")
		for i := lo; i < lo+500; i++ {
			if i > lo {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, GAUSSIAN(%d, 2))", i, i%50)
		}
		if _, err := setup.Query(b.String()); err != nil {
			t.Fatal(err)
		}
	}
	setup.Close()

	const flaky = 10
	var wg sync.WaitGroup
	for id := 0; id < flaky; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			raw, err := net.Dial("tcp", addr)
			if err != nil {
				t.Errorf("flaky %d: dial: %v", id, err)
				return
			}
			fc := flakyconn.New(raw, flakyconn.Config{
				Seed:       int64(id + 1),
				ChunkMax:   7,
				StallEvery: 50,
				Stall:      time.Millisecond,
				DropAfter:  int64(200 + id*157), // die at a different frame offset each
			})
			c := wire.NewClient(fc)
			defer c.Close()
			c.SetCallTimeout(10 * time.Second)
			// Hammer streamed SELECTs until the injected drop severs us;
			// every outcome except a server crash is acceptable.
			for i := 0; i < 50; i++ {
				if _, err := c.Query("SELECT k FROM f WHERE k < 1200"); err != nil {
					return
				}
			}
		}(id)
	}
	wg.Wait()

	// The server shrugged: a healthy client gets answers.
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatalf("dial after chaos: %v", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after chaos: %v", err)
	}
	res, err := c.Query("SELECT COUNT(*) FROM f")
	if err != nil {
		t.Fatalf("query after chaos: %v", err)
	}
	if res == nil {
		t.Fatal("nil result after chaos")
	}
	c.Close()

	shutdownServer(t, s)
	waitNoLeaks(t, before)
}
