package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"probdb/internal/core"
	"probdb/internal/dist"
	"probdb/internal/server"
	"probdb/internal/wire"
)

// barrier releases each round of n arrivals together.
type barrier struct {
	mu      sync.Mutex
	n       int
	arrived int
	release chan struct{}
}

func newBarrier(n int) *barrier { return &barrier{n: n, release: make(chan struct{})} }

// arrive waits until n parties have arrived in this round, and reports
// false if they have not within patience.
func (b *barrier) arrive(patience time.Duration) bool {
	b.mu.Lock()
	ch := b.release
	if b.arrived++; b.arrived == b.n {
		close(ch)
		b.arrived, b.release = 0, make(chan struct{})
	}
	b.mu.Unlock()
	select {
	case <-ch:
		return true
	case <-time.After(patience):
		return false
	}
}

// barrierShard answers every statement only once every shard has received
// its own: a router that writes to one shard after the other never gets an
// answer from the first, which refuses once its patience runs out.
type barrierShard struct {
	c *wire.Conn
	b *barrier
}

func (s *barrierShard) Frame(_ wire.FrameType, payload []byte) bool {
	if !s.b.arrive(5 * time.Second) {
		return s.c.WriteFrame(wire.FrameError, wire.EncodeError(wire.ErrGeneric, 0,
			"no other shard received its statement: "+string(payload)))
	}
	return s.c.WriteFrame(wire.FrameResult, wire.EncodeResult(&wire.Result{Affected: 1}))
}

func (s *barrierShard) Close() {}

// TestRouterWritesFanOut: a write that targets both shards reaches both
// before either answers — the router runs the shards' parts concurrently —
// for CREATE, a routed INSERT with rows for both shards, a fanned-out
// DELETE, ANALYZE and CHECKPOINT. With serial writes every statement fails.
func TestRouterWritesFanOut(t *testing.T) {
	b := newBarrier(2)
	var addrs []string
	for i := 0; i < 2; i++ {
		l, err := wire.Listen(wire.ListenConfig{
			Addr: "127.0.0.1:0", MaxConns: 4, WriteTimeout: time.Minute, Name: "shard", Logf: t.Logf,
			Open: func(c *wire.Conn) wire.Handler { return &barrierShard{c: c, b: b} },
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Shutdown(context.Background()) })
		addrs = append(addrs, l.Addr().String())
	}
	c, err := wire.Dial(startTestRouter(t, addrs...).Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var rows []string
	hit := map[int]bool{}
	for k := 0; k < 8; k++ {
		rows = append(rows, fmt.Sprintf("(%d)", k))
		hit[Partition(core.Int(int64(k)), 2)] = true
	}
	if len(hit) != 2 {
		t.Fatalf("keys 0..7 all hash to one shard: %v", hit)
	}
	for _, sql := range []string{
		"CREATE TABLE t (k INT)",
		"INSERT INTO t (k) VALUES " + strings.Join(rows, ", "),
		"DELETE FROM t WHERE k > 3",
		"ANALYZE t",
		"CHECKPOINT",
	} {
		res, err := c.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if res.Affected != 2 {
			t.Errorf("%s: affected %d, want the two shards' 1 each", sql, res.Affected)
		}
	}
}

// TestRouterWriteRefusal: when one shard refuses its part of a multi-shard
// write — here its copy of the table is gone — the shard's error comes back
// for a routed INSERT and a fanned-out DELETE alike. The other shard may
// have applied its part (a multi-shard write is not atomic), so the _gseq
// range the INSERT was handed stays spent: the next INSERT's rows sort after
// every row already stored.
func TestRouterWriteRefusal(t *testing.T) {
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
	c, err := wire.Dial(startTestRouter(t, addrs...).Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	insert := func(from, to int) error {
		var rows []string
		for k := from; k < to; k++ {
			rows = append(rows, fmt.Sprintf("(%d)", k))
		}
		_, err := c.Query("INSERT INTO t (k) VALUES " + strings.Join(rows, ", "))
		return err
	}
	onShard1 := func(sql string) {
		t.Helper()
		d, err := wire.Dial(addrs[1])
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		if _, err := d.Query(sql); err != nil {
			t.Fatalf("%s on shard 1: %v", sql, err)
		}
	}

	if _, err := c.Query("CREATE TABLE t (k INT)"); err != nil {
		t.Fatal(err)
	}
	if err := insert(0, 10); err != nil {
		t.Fatal(err)
	}
	onShard1("DROP TABLE t")
	for _, w := range []func() error{
		func() error { return insert(10, 20) },
		func() error { _, err := c.Query("DELETE FROM t WHERE k > 100"); return err },
	} {
		var se *wire.ServerError
		if err := w(); !errors.As(err, &se) || !strings.Contains(se.Msg, `no table "t"`) {
			t.Fatalf("a write shard 1 refuses answered %v, want its ServerError", err)
		}
	}
	onShard1("CREATE TABLE t (k INT, " + GseqCol + " INT)")
	if err := insert(20, 30); err != nil {
		t.Fatal(err)
	}

	res, err := c.Query("SELECT k FROM t")
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	for _, row := range res.Table.Rows {
		got = append(got, row.Cells[0].Value.I)
	}
	// Stored: shard 0's rows of 0..9 and of the refused 10..19, then all
	// of 20..29. In _gseq order the keys ascend.
	if len(got) < 10 || fmt.Sprint(got[len(got)-10:]) != fmt.Sprint([]int64{20, 21, 22, 23, 24, 25, 26, 27, 28, 29}) {
		t.Fatalf("rows %v: the last INSERT's rows are not last, in order", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("rows %v: out of insertion order at %d", got, i)
		}
	}
}

// corruptShard answers CREATE with a Result and a SELECT with one RowBatch
// of (k, x, _gseq) rows whose last pdf has a zero standard deviation — an
// encoding dist.Decode refuses.
type corruptShard struct{ c *wire.Conn }

func (s *corruptShard) Frame(_ wire.FrameType, payload []byte) bool {
	if !strings.HasPrefix(string(payload), "SELECT") {
		return s.c.WriteFrame(wire.FrameResult, wire.EncodeResult(&wire.Result{Message: "ok"}))
	}
	b := &wire.RowBatch{Name: "t", Cols: []wire.Column{
		{Name: "k", Type: core.IntType}, {Name: "x", Type: core.FloatType, Uncertain: true}, {Name: GseqCol, Type: core.IntType},
	}}
	for g := int64(0); g < 3; g++ {
		b.Rows = append(b.Rows, wire.Row{Exists: 1, Cells: []wire.Cell{
			{Kind: wire.CellValue, Value: core.Int(g)},
			{Kind: wire.CellPDF, PDF: dist.NewGaussian(float64(g), 1)},
			{Kind: wire.CellValue, Value: core.Int(g)},
		}})
	}
	frame := wire.EncodeRowBatch(b)
	// The last row ends with the Gaussian's 8-byte sigma and the _gseq
	// cell (kind, tag, one varint byte).
	sigma := len(frame) - 3 - 8
	copy(frame[sigma:sigma+8], make([]byte, 8))
	s.c.BufferFrame(wire.FrameRowBatch, frame)
	return s.c.WriteFrame(wire.FrameResult, wire.EncodeResult(&wire.Result{}))
}

func (s *corruptShard) Close() {}

// TestRouterGatesCorruptShardFrame: shard rows cross the merge undecoded,
// but every cell is still checked there: a shard frame with a malformed pdf
// fails the SELECT with shard-unavailable and gates that shard, as a dying
// shard does.
func TestRouterGatesCorruptShardFrame(t *testing.T) {
	l, err := wire.Listen(wire.ListenConfig{
		Addr: "127.0.0.1:0", MaxConns: 4, WriteTimeout: time.Minute, Name: "shard", Logf: t.Logf,
		Open: func(c *wire.Conn) wire.Handler { return &corruptShard{c: c} },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Shutdown(context.Background()) })
	r := startTestRouter(t, l.Addr().String())
	c, err := wire.Dial(r.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query("CREATE TABLE t (k INT, x FLOAT UNCERTAIN)"); err != nil {
		t.Fatal(err)
	}
	_, err = c.Query("SELECT k, x FROM t")
	var se *wire.ServerError
	if !errors.As(err, &se) || se.Code != wire.ErrShardUnavailable || !strings.Contains(se.Msg, "GAUSSIAN") {
		t.Fatalf("SELECT over a corrupt shard frame answered %v, want shard-unavailable naming the bad pdf", err)
	}
	if !r.shards[0].down() {
		t.Fatal("the shard that sent the corrupt frame is not gated")
	}
}
