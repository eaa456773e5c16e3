package server

import (
	"bufio"
	"fmt"
	"net"
	"testing"
	"time"

	"probdb/internal/flakyconn"
	"probdb/internal/wire"
)

// pipeSession serves one session of handler h over an in-memory pipe whose
// server end counts its socket writes. A write on the pipe returns only once
// the client end has read it, so a frame the test has read was written
// before the statement could end.
type pipeSession struct {
	t  *testing.T
	h  wire.Handler
	fc *flakyconn.Conn
	br *bufio.Reader
}

func newPipeSession(t *testing.T, open func(c *wire.Conn) wire.Handler) *pipeSession {
	t.Helper()
	srv, cli := net.Pipe()
	fc := flakyconn.New(srv, flakyconn.Config{})
	p := &pipeSession{t: t, fc: fc, br: bufio.NewReader(cli)}
	p.h = open(wire.NewConn(fc, time.Minute))
	t.Cleanup(func() {
		p.h.Close()
		srv.Close() //nolint:errcheck
		cli.Close() //nolint:errcheck
	})
	return p
}

// query sends sql and reads its response up to the terminal frame. It
// returns the RowBatch sizes, the terminal frame's type and how many
// socket writes the response took. streamedBefore is how many RowBatch
// frames the client had read while the statement was still running.
func (p *pipeSession) query(sql string) (batches []int, term wire.FrameType, writes, streamedBefore int) {
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

// TestResultWrites: a result of one batch — a point SELECT, an empty
// SELECT, ten rows — reaches the client in one socket write, its RowBatch
// together with its Result. A longer result flushes each full batch the
// moment it is produced, so the client reads them while the statement still
// runs, and its short last batch leaves with the Result.
func TestResultWrites(t *testing.T) {
	s := startServer(t, Config{Workers: 2})
	defer shutdownServer(t, s)
	c, err := wire.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fillTable(t, c, "t", 800)
	if _, err := c.Query("CREATE INDEX ON t (k)"); err != nil {
		t.Fatal(err)
	}

	p := newPipeSession(t, s.open)
	for _, tc := range []struct {
		sql     string
		batches []int
		writes  int
	}{
		{"SELECT k, x FROM t WHERE k = 5", []int{1}, 1},
		{"SELECT k FROM t WHERE k < 0", []int{0}, 1},
		{"SELECT k, x FROM t WHERE k < 10", []int{10}, 1},
		{"SELECT * FROM t WHERE k < 10", []int{10}, 1},
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

// TestLatencyExcludesSocketWrites: a streamed statement's LatencyMicros is
// its execution. The time its sink spends blocked writing full RowBatch
// frames to a slow client — each write here stalls before it starts — is
// not in it.
func TestLatencyExcludesSocketWrites(t *testing.T) {
	s := startServer(t, Config{Workers: 2})
	defer shutdownServer(t, s)
	c, err := wire.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fillTable(t, c, "t", 800)

	const stall = 300 * time.Millisecond
	srv, cli := net.Pipe()
	defer cli.Close() //nolint:errcheck
	defer srv.Close() //nolint:errcheck
	h := s.open(wire.NewConn(flakyconn.New(srv, flakyconn.Config{StallEvery: 1, Stall: stall}), time.Minute))
	defer h.Close()
	done := make(chan bool, 1)
	go func() { done <- h.Frame(wire.FrameQuery, []byte("SELECT k, x FROM t WHERE k < 600")) }()
	br := bufio.NewReader(cli)
	batches := 0
	for {
		ft, payload, err := wire.ReadFrame(br)
		if err != nil {
			t.Fatal(err)
		}
		if ft == wire.FrameRowBatch {
			batches++
			continue
		}
		if ft != wire.FrameResult {
			t.Fatalf("%v frame after %d batches", ft, batches)
		}
		res, err := wire.DecodeResult(payload)
		if err != nil {
			t.Fatal(err)
		}
		// Two full batches were written, each after a stall, while the
		// statement ran.
		if lat := time.Duration(res.Stats.LatencyMicros) * time.Microsecond; lat >= stall {
			t.Errorf("latency %v includes the blocked socket writes (%d batches, %v stall each)", lat, batches, stall)
		}
		break
	}
	if !<-done {
		t.Fatal("the session ended")
	}
}
