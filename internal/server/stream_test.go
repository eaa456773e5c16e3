package server

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"probdb/internal/pipe"
	"probdb/internal/wire"
)

// fillTable creates one table and bulk-inserts n rows through the client.
func fillTable(t *testing.T, c *wire.Client, table string, n int) {
	t.Helper()
	if _, err := c.Query(fmt.Sprintf("CREATE TABLE %s (k INT, x FLOAT UNCERTAIN)", table)); err != nil {
		t.Fatal(err)
	}
	const chunk = 100
	for at := 0; at < n; at += chunk {
		var b strings.Builder
		fmt.Fprintf(&b, "INSERT INTO %s (k, x) VALUES ", table)
		for i := at; i < at+chunk && i < n; i++ {
			if i > at {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, GAUSSIAN(%d, 2))", i, i%50)
		}
		if _, err := c.Query(b.String()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestServerStreamsSelect: a SELECT over many rows arrives as multiple
// RowBatch frames — the first one before the result is complete — followed
// by a Result whose stats cover the whole query.
func TestServerStreamsSelect(t *testing.T) {
	s := startServer(t, Config{Workers: 2})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	c, err := wire.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 900
	fillTable(t, c, "readings", n)

	st, err := c.QueryStream("SELECT k, x FROM readings")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Columns()) != 2 {
		t.Fatalf("columns: %v", st.Columns())
	}
	rows, batches := 0, 0
	for {
		b, err := st.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		rows += len(b)
		batches++
	}
	if rows != n {
		t.Fatalf("streamed %d rows, want %d", rows, n)
	}
	if batches < 2 {
		t.Fatalf("result arrived in %d batch(es); want incremental delivery", batches)
	}
	res, err := st.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != n || res.Stats.Rows != n {
		t.Fatalf("trailing stats: affected=%d rows=%d, want %d", res.Affected, res.Stats.Rows, n)
	}

	// The draining Query sees the identical relation.
	full, err := c.Query("SELECT k, x FROM readings")
	if err != nil {
		t.Fatal(err)
	}
	if full.Table == nil || len(full.Table.Rows) != n {
		t.Fatalf("drained rows: %v", full.Table)
	}
}

// TestServerMidStreamDisconnect is the cancellation drill: a client drops
// its connection partway through a large streamed result. The operator tree
// must close (no open operators), the worker slot must free up (the single
// worker serves the next client), and no goroutines may leak.
func TestServerMidStreamDisconnect(t *testing.T) {
	before := runtime.NumGoroutine()
	s := startServer(t, Config{Workers: 1, MaxConns: 8})
	addr := s.Addr().String()

	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	const n = 6000
	fillTable(t, c, "big", n)

	st, err := c.QueryStream("SELECT k, x FROM big")
	if err != nil {
		t.Fatal(err)
	}
	if rows, err := st.NextBatch(); err != nil || len(rows) == 0 {
		t.Fatalf("first batch: %d rows, err %v", len(rows), err)
	}
	// Hang up with most of the stream still unsent.
	c.Close() //nolint:errcheck

	// The single worker must become available again: a fresh session's
	// queries — including another full streamed SELECT — succeed.
	c2, err := wire.DialRetry(addr, wire.RetryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	res, err := c2.Query("SELECT k, x FROM big WHERE k < 10")
	if err != nil {
		t.Fatalf("query after disconnect: %v", err)
	}
	if len(res.Table.Rows) != 10 {
		t.Fatalf("rows after disconnect: %d, want 10", len(res.Table.Rows))
	}

	// The aborted tree must have closed every operator. The abort completes
	// asynchronously with the disconnect, so poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for pipe.OpenOperators() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pipe.OpenOperators() = %d after disconnect", pipe.OpenOperators())
		}
		time.Sleep(10 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c2.Close() //nolint:errcheck
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			nb := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d -> %d\n%s", before, runtime.NumGoroutine(), buf[:nb])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServerStreamNonSelectUnchanged: statements without streamable output
// still arrive as one Result frame even through the streaming client path.
func TestServerStreamNonSelectUnchanged(t *testing.T) {
	s := startServer(t, Config{})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	c, err := wire.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fillTable(t, c, "t", 10)
	for _, q := range []string{
		"SELECT COUNT(*) FROM t",
		"EXPLAIN SELECT * FROM t",
		"SHOW TABLES",
	} {
		st, err := c.QueryStream(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if _, err := st.Drain(); err != nil {
			t.Fatalf("%s: drain: %v", q, err)
		}
	}
}

// TestStreamFramesAreFull: a streamed result ships ⌈rows/256⌉ RowBatch
// frames, every one but the last full, however few rows each scanned batch
// kept — pipe.Run coalesces what the filters thin out, under a projection
// or with a filter as the root (SELECT *).
func TestStreamFramesAreFull(t *testing.T) {
	s := startServer(t, Config{Workers: 2})
	defer shutdownServer(t, s)
	c, err := wire.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fillTable(t, c, "t", 3000)
	for _, q := range []string{
		"SELECT k FROM t WHERE PROB(x IN [0, 20]) >= 0.5",
		"SELECT k, x FROM t WHERE x < 10 AND k < 2900",
		"SELECT x FROM t WHERE k >= 100 LIMIT 700",
		"SELECT * FROM t WHERE PROB(x IN [0, 20]) >= 0.5",
		"SELECT * FROM t WHERE x < 10 AND k < 2900",
		"SELECT * FROM t WHERE k >= 100 LIMIT 700",
	} {
		st, err := c.QueryStream(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		var sizes []int
		rows := 0
		for {
			b, err := st.NextBatch()
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			if b == nil {
				break
			}
			sizes = append(sizes, len(b))
			rows += len(b)
		}
		if rows < 600 || len(sizes) != (rows+pipe.BatchSize-1)/pipe.BatchSize {
			t.Fatalf("%s: %d rows in %d frames %v, want ⌈rows/%d⌉", q, rows, len(sizes), sizes, pipe.BatchSize)
		}
		for _, n := range sizes[:len(sizes)-1] {
			if n != pipe.BatchSize {
				t.Fatalf("%s: a frame short of %d rows: %v", q, pipe.BatchSize, sizes)
			}
		}
	}
}
