package cluster

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"probdb/internal/core"
	"probdb/internal/flakyconn"
	"probdb/internal/server"
	"probdb/internal/wire"
)

// pipeRouterSession opens one router session over an in-memory pipe whose
// router end counts its socket writes. A write on the pipe returns only
// once the client end has read it, so a frame the test has read was written
// before the statement could end.
type pipeRouterSession struct {
	t  *testing.T
	h  wire.Handler
	fc *flakyconn.Conn
	br *bufio.Reader
}

func newPipeRouterSession(t *testing.T, r *Router) *pipeRouterSession {
	t.Helper()
	srv, cli := net.Pipe()
	fc := flakyconn.New(srv, flakyconn.Config{})
	p := &pipeRouterSession{t: t, fc: fc, br: bufio.NewReader(cli)}
	p.h = r.open(wire.NewConn(fc, time.Minute))
	t.Cleanup(func() {
		p.h.Close()
		srv.Close() //nolint:errcheck
		cli.Close() //nolint:errcheck
	})
	return p
}

// query sends sql and reads its response up to the terminal frame. It
// returns the RowBatch sizes, the terminal frame's type and how many socket
// writes the response took. streamedBefore is how many RowBatch frames the
// client had read while the statement was still running.
func (p *pipeRouterSession) query(sql string) (batches []int, term wire.FrameType, writes, streamedBefore int) {
	p.t.Helper()
	before := p.fc.Writes()
	done := make(chan bool, 1)
	go func() { done <- p.h.Frame(wire.FrameQuery, []byte(sql)) }()
	for {
		ft, payload, err := wire.ReadFrame(p.br)
		if err != nil {
			p.t.Fatalf("%s: %v", sql, err)
		}
		if ft != wire.FrameRowBatch {
			term = ft
			break
		}
		b, err := wire.DecodeRowBatch(payload)
		if err != nil {
			p.t.Fatalf("%s: %v", sql, err)
		}
		batches = append(batches, len(b.Rows))
		select {
		case ok := <-done:
			done <- ok
		default:
			streamedBefore++
		}
	}
	if !<-done {
		p.t.Fatalf("%s: the session ended", sql)
	}
	return batches, term, p.fc.Writes() - before, streamedBefore
}

func startTestRouter(t testing.TB, addrs ...string) *Router {
	t.Helper()
	var specs []ShardSpec
	for _, a := range addrs {
		specs = append(specs, ShardSpec{Addr: a})
	}
	r, err := NewRouter(Config{
		Addr: "127.0.0.1:0", Dir: t.TempDir(), Shards: specs,
		DialTimeout: time.Second, RetryAfterHint: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Shutdown(context.Background()) }) //nolint:errcheck
	return r
}

// TestRouterResultWrites: through the router, a result of one merged batch
// reaches the client in one socket write, its RowBatch together with its
// Result; a longer result flushes each full batch as the merge fills it,
// and its short tail leaves with the Result.
func TestRouterResultWrites(t *testing.T) {
	var addrs []string
	for i := 0; i < 2; i++ {
		s, err := server.New(server.Config{Addr: "127.0.0.1:0", DataDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Shutdown(context.Background()) }) //nolint:errcheck
		addrs = append(addrs, s.Addr().String())
	}
	r := startTestRouter(t, addrs...)
	c, err := wire.Dial(r.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query("CREATE TABLE t (k INT, x FLOAT UNCERTAIN)"); err != nil {
		t.Fatal(err)
	}
	for at := 0; at < 800; at += 100 {
		var b strings.Builder
		b.WriteString("INSERT INTO t (k, x) VALUES ")
		for i := at; i < at+100; i++ {
			if i > at {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, GAUSSIAN(%d, 2))", i, i%50)
		}
		if _, err := c.Query(b.String()); err != nil {
			t.Fatal(err)
		}
	}

	p := newPipeRouterSession(t, r)
	for _, tc := range []struct {
		sql     string
		batches []int
		writes  int
	}{
		{"SELECT k, x FROM t WHERE k = 5", []int{1}, 1},
		{"SELECT k FROM t WHERE k < 0", []int{0}, 1},
		{"SELECT k, x FROM t WHERE k < 10", []int{10}, 1},
		{"SELECT k FROM t WHERE k < 600", []int{256, 256, 88}, 3},
		// Full batches of uncertain rows (8 KB with the Gaussian x, 12 KB
		// floored) still take one write each.
		{"SELECT k, x FROM t WHERE k < 600", []int{256, 256, 88}, 3},
		{"SELECT k, x FROM t WHERE x < 30 AND k < 600", []int{256, 256, 88}, 3},
	} {
		batches, term, writes, streamed := p.query(tc.sql)
		if term != wire.FrameResult || fmt.Sprint(batches) != fmt.Sprint(tc.batches) {
			t.Fatalf("%s: batches %v then %v, want %v then Result", tc.sql, batches, term, tc.batches)
		}
		if writes != tc.writes {
			t.Errorf("%s: %d socket writes, want %d", tc.sql, writes, tc.writes)
		}
		if want := len(tc.batches) - 1; streamed < want {
			t.Errorf("%s: %d batches read before the statement ended, want %d", tc.sql, streamed, want)
		}
	}
}

// scriptedShard answers CREATE with a Result and a SELECT with one RowBatch
// of (k, _gseq) rows — of k alone when narrow — then fail's Error frame or,
// when fail is empty, a Result.
type scriptedShard struct {
	c      *wire.Conn
	gseq   []int64
	fail   string
	narrow bool
}

func (s *scriptedShard) Frame(ft wire.FrameType, payload []byte) bool {
	if !strings.HasPrefix(string(payload), "SELECT") {
		return s.c.WriteFrame(wire.FrameResult, wire.EncodeResult(&wire.Result{Message: "ok"}))
	}
	b := &wire.RowBatch{Name: "t", Cols: []wire.Column{{Name: "k", Type: core.IntType}, {Name: GseqCol, Type: core.IntType}}}
	if s.narrow {
		b.Cols = b.Cols[:1]
	}
	for _, g := range s.gseq {
		b.Rows = append(b.Rows, wire.Row{Exists: 1, Cells: []wire.Cell{
			{Kind: wire.CellValue, Value: core.Int(g)}, {Kind: wire.CellValue, Value: core.Int(g)},
		}[:len(b.Cols)]})
	}
	s.c.BufferFrame(wire.FrameRowBatch, wire.EncodeRowBatch(b))
	if s.fail != "" {
		return s.c.WriteFrame(wire.FrameError, wire.EncodeError(wire.ErrGeneric, 0, s.fail))
	}
	return s.c.WriteFrame(wire.FrameResult, wire.EncodeResult(&wire.Result{}))
}

func (s *scriptedShard) Close() {}

// startScriptedCluster starts one listener per scripted shard and a router
// over them.
func startScriptedCluster(t *testing.T, shards ...scriptedShard) *Router {
	t.Helper()
	var addrs []string
	for _, sh := range shards {
		l, err := wire.Listen(wire.ListenConfig{
			Addr: "127.0.0.1:0", MaxConns: 4, WriteTimeout: time.Minute, Name: "shard", Logf: t.Logf,
			Open: func(c *wire.Conn) wire.Handler { h := sh; h.c = c; return &h },
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Shutdown(context.Background()) })
		addrs = append(addrs, l.Addr().String())
	}
	return startTestRouter(t, addrs...)
}

// TestRouterErrorAfterBufferedTail: a shard that fails while the router
// drains what a LIMIT cut off fails the statement after its merged tail
// batch was buffered; the client still reads that batch, then the shard's
// Error, in one socket write.
func TestRouterErrorAfterBufferedTail(t *testing.T) {
	p := newPipeRouterSession(t, startScriptedCluster(t, scriptedShard{gseq: []int64{1, 2, 3}}, scriptedShard{gseq: []int64{10, 11}, fail: "shard failed late"}))
	if _, term, _, _ := p.query("CREATE TABLE t (k INT)"); term != wire.FrameResult {
		t.Fatalf("CREATE answered %v", term)
	}
	batches, term, writes, _ := p.query("SELECT k FROM t LIMIT 2")
	if term != wire.FrameError || fmt.Sprint(batches) != "[2]" {
		t.Fatalf("batches %v then %v, want [2] then Error", batches, term)
	}
	if writes != 1 {
		t.Errorf("%d socket writes, want 1", writes)
	}
}
