package server

import (
	"bufio"
	"fmt"
	"net"
	"regexp"
	"strings"
	"testing"
	"time"

	"probdb/internal/flakyconn"
	"probdb/internal/wire"
)

// answerGrammar is the one shape of every answer, spelled by answerShape:
// RowBatch(seq 0, header) RowBatch* then Result or Error, or a lone Result
// or Error.
var answerGrammar = regexp.MustCompile(`^(HB*)?[RE]$`)

// answerShape reads one answer off br and spells its frames: H for a
// RowBatch of seq 0 with the header, B for a RowBatch with the next seq and
// no header, X for any other RowBatch, R for Result, E for Error, and any
// other frame by its name in angle brackets.
func answerShape(t *testing.T, br *bufio.Reader) string {
	t.Helper()
	var b strings.Builder
	for next := uint64(0); ; next++ {
		ft, payload, err := wire.ReadFrame(br)
		if err != nil {
			t.Fatal(err)
		}
		switch ft {
		case wire.FrameResult:
			return b.String() + "R"
		case wire.FrameError:
			return b.String() + "E"
		case wire.FrameRowBatch:
		default:
			return fmt.Sprintf("%s<%v>", b.String(), ft)
		}
		rb, err := wire.DecodeRowBatch(payload)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case rb.Seq != next || (rb.Cols != nil) != (next == 0):
			b.WriteByte('X')
		case next == 0:
			b.WriteByte('H')
		default:
			b.WriteByte('B')
		}
	}
}

// shape sends sql on the session and spells its answer.
func (p *pipeSession) shape(sql string) string {
	p.t.Helper()
	done := make(chan bool, 1)
	go func() { done <- p.h.Frame(wire.FrameQuery, []byte(sql)) }()
	s := answerShape(p.t, p.br)
	if !<-done {
		p.t.Fatalf("%s: the session ended", sql)
	}
	return s
}

// TestServerAnswerGrammar: every kind of statement probserve answers —
// DDL, DML, SELECTs with many rows, none and an aggregate, the catalog and
// health commands, CHECKPOINT, a transaction, EXPLAIN, a statement that
// fails and one that fails after its first batch went out — is answered
// with RowBatch(seq 0, header) RowBatch* then Result or Error, or with a
// lone Result or Error.
func TestServerAnswerGrammar(t *testing.T) {
	s := startServer(t, Config{Workers: 2, DataDir: t.TempDir(), QueryTimeout: 500 * time.Millisecond})
	defer shutdownServer(t, s)
	c, err := wire.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fillTable(t, c, "t", 600)

	p := newPipeSession(t, s.open)
	for _, tc := range []struct{ sql, shape string }{
		{"CREATE TABLE g (k INT, x FLOAT UNCERTAIN)", "R"},
		{"INSERT INTO g (k, x) VALUES (1, GAUSSIAN(10, 2)), (2, GAUSSIAN(20, 2))", "R"},
		{"SELECT k, x FROM t WHERE k < 600", "HBBR"},
		{"SELECT k, x FROM g", "HR"},
		{"SELECT k FROM g WHERE k < 0", "HR"},
		{"SELECT COUNT(*) FROM g", "R"},
		{"SHOW TABLES", "R"},
		{"DESCRIBE g", "R"},
		{"HEALTH", "R"},
		{"CHECKPOINT", "R"},
		{"BEGIN", "R"},
		{"INSERT INTO g (k, x) VALUES (3, GAUSSIAN(30, 2))", "R"},
		{"SELECT k FROM g", "HR"},
		{"COMMIT", "R"},
		{"EXPLAIN SELECT k FROM g WHERE x < 15", "R"},
		{"DELETE FROM g WHERE k = 1", "R"},
		{"SELECT nope FROM g", "E"},
		{"INSERT INTO nowhere (k) VALUES (1)", "E"},
	} {
		got := p.shape(tc.sql)
		if !answerGrammar.MatchString(got) || got != tc.shape {
			t.Errorf("%s: answered %s, want %s", tc.sql, got, tc.shape)
		}
	}

	// A statement that fails mid-stream: each socket write stalls past the
	// query timeout, so the scan is cancelled after its first full batch
	// went out, and an Error follows the batches already sent.
	srv, cli := net.Pipe()
	defer cli.Close() //nolint:errcheck
	defer srv.Close() //nolint:errcheck
	h := s.open(wire.NewConn(flakyconn.New(srv, flakyconn.Config{StallEvery: 1, Stall: 800 * time.Millisecond}), time.Minute))
	defer h.Close()
	done := make(chan bool, 1)
	go func() { done <- h.Frame(wire.FrameQuery, []byte("SELECT k, x FROM t WHERE k < 600")) }()
	got := answerShape(t, bufio.NewReader(cli))
	<-done
	if !answerGrammar.MatchString(got) || !strings.HasPrefix(got, "H") || !strings.HasSuffix(got, "E") {
		t.Errorf("mid-stream failure answered %s, want H B* E", got)
	}
}
