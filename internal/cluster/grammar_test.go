package cluster

import (
	"bufio"
	"context"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"probdb/internal/server"
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
func (p *pipeRouterSession) shape(sql string) string {
	p.t.Helper()
	done := make(chan bool, 1)
	go func() { done <- p.h.Frame(wire.FrameQuery, []byte(sql)) }()
	s := answerShape(p.t, p.br)
	if !<-done {
		p.t.Fatalf("%s: the session ended", sql)
	}
	return s
}

// TestRouterAnswerGrammar: every kind of statement probrouter answers —
// DDL, DML, merged SELECTs with many rows and none, an aggregate (refused),
// the catalog and health commands, CHECKPOINT, a statement that fails and
// one whose shard fails after the merged tail was buffered — is answered
// with RowBatch(seq 0, header) RowBatch* then Result or Error, or with a
// lone Result or Error.
func TestRouterAnswerGrammar(t *testing.T) {
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
	p := newPipeRouterSession(t, startTestRouter(t, addrs...))
	var ins strings.Builder
	ins.WriteString("INSERT INTO t (k, x) VALUES ")
	for i := 0; i < 300; i++ {
		if i > 0 {
			ins.WriteString(", ")
		}
		fmt.Fprintf(&ins, "(%d, GAUSSIAN(%d, 2))", i, i%50)
	}
	for _, tc := range []struct{ sql, shape string }{
		{"CREATE TABLE t (k INT, x FLOAT UNCERTAIN)", "R"},
		{ins.String(), "R"},
		{"SELECT k, x FROM t", "HBR"},
		{"SELECT k FROM t WHERE k = 7", "HR"},
		{"SELECT k FROM t WHERE k < 0", "HR"},
		{"SELECT COUNT(*) FROM t", "E"},
		{"SHOW TABLES", "R"},
		{"DESCRIBE t", "R"},
		{"HEALTH", "R"},
		{"CHECKPOINT", "R"},
		{"DELETE FROM t WHERE k = 1", "R"},
		{"SELECT nope FROM t", "E"},
		{"BEGIN", "E"},
	} {
		got := p.shape(tc.sql)
		if !answerGrammar.MatchString(got) || got != tc.shape {
			t.Errorf("%.40s: answered %s, want %s", tc.sql, got, tc.shape)
		}
	}

	// A shard that fails after the merged tail was buffered: the tail
	// batch, then the Error.
	p = newPipeRouterSession(t, startScriptedCluster(t, scriptedShard{gseq: []int64{1, 2, 3}}, scriptedShard{gseq: []int64{10, 11}, fail: "shard failed late"}))
	if got := p.shape("CREATE TABLE t (k INT)"); got != "R" {
		t.Fatalf("CREATE answered %s", got)
	}
	if got := p.shape("SELECT k FROM t LIMIT 2"); !answerGrammar.MatchString(got) || got != "HE" {
		t.Errorf("mid-stream failure answered %s, want HE", got)
	}
}

// TestRouterChecksEveryShardHeader: the router checks each shard's header
// width when it opens the shard streams, not only the first shard's; a
// shard whose header lacks the hidden _gseq column fails the statement
// before any row is merged.
func TestRouterChecksEveryShardHeader(t *testing.T) {
	p := newPipeRouterSession(t, startScriptedCluster(t, scriptedShard{gseq: []int64{1, 2}}, scriptedShard{gseq: []int64{3}, narrow: true}))
	if got := p.shape("CREATE TABLE t (k INT)"); got != "R" {
		t.Fatalf("CREATE answered %s", got)
	}
	done := make(chan bool, 1)
	go func() { done <- p.h.Frame(wire.FrameQuery, []byte("SELECT k FROM t")) }()
	ft, payload, err := wire.ReadFrame(p.br)
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if se := wire.DecodeError(payload); ft != wire.FrameError || !strings.Contains(se.Msg, "shard 1 returned 1 columns, expected 2") {
		t.Fatalf("answered %v %q, want the width refusal", ft, payload)
	}
}
