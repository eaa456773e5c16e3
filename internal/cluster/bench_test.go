package cluster

import (
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"probdb/internal/core"
	"probdb/internal/dist"
	"probdb/internal/wire"
)

// cannedShard answers a SELECT with a canned RowBatch stream and any other
// statement with a one-row Result, so a benchmark of the router spends
// next to nothing in its shards.
type cannedShard struct {
	c      *wire.Conn
	stream [][]byte // RowBatch payloads
}

func (s *cannedShard) Frame(_ wire.FrameType, payload []byte) bool {
	if !strings.HasPrefix(string(payload), "SELECT") {
		return s.c.WriteFrame(wire.FrameResult, wire.EncodeResult(&wire.Result{Affected: 1}))
	}
	for _, p := range s.stream {
		if !s.c.BufferFrame(wire.FrameRowBatch, p) {
			return false
		}
	}
	return s.c.WriteFrame(wire.FrameResult, wire.EncodeResult(&wire.Result{}))
}

func (s *cannedShard) Close() {}

// cannedScan encodes shard's half of a rows-row table (rid INT, value
// GAUSSIAN, _gseq INT) whose rows alternate between two shards, in full
// 256-row batches.
func cannedScan(shard, rows int) [][]byte {
	cols := []wire.Column{
		{Name: "rid", Type: core.IntType},
		{Name: "value", Type: core.FloatType, Uncertain: true},
		{Name: GseqCol, Type: core.IntType},
	}
	var (
		out   [][]byte
		batch = &wire.RowBatch{Name: "π(t)", Cols: cols}
	)
	for g := shard; g < rows; g += 2 {
		batch.Rows = append(batch.Rows, wire.Row{Exists: 1, Cells: []wire.Cell{
			{Kind: wire.CellValue, Value: core.Int(int64(g))},
			{Kind: wire.CellPDF, PDF: dist.NewGaussian(float64(g%100), 4)},
			{Kind: wire.CellValue, Value: core.Int(int64(g))},
		}})
		if len(batch.Rows) == 256 || g+2 >= rows {
			out = append(out, wire.EncodeRowBatch(batch))
			batch = &wire.RowBatch{Seq: batch.Seq + 1}
		}
	}
	return out
}

// BenchmarkRouterScatter measures the router's own cost per forwarded row:
// a 10k-row SELECT rid, value scattered over two in-process shards that
// answer from canned frames, and a 125-row INSERT routed to both. The
// client end discards what it reads, so the time and the allocations are
// the router's (and the canned shards' small share).
func BenchmarkRouterScatter(b *testing.B) {
	const scanRows, insertRows = 10000, 125
	var addrs []string
	for i := 0; i < 2; i++ {
		stream := cannedScan(i, scanRows)
		l, err := wire.Listen(wire.ListenConfig{
			Addr: "127.0.0.1:0", MaxConns: 4, WriteTimeout: time.Minute, Name: "shard", Logf: b.Logf,
			Open: func(c *wire.Conn) wire.Handler { return &cannedShard{c: c, stream: stream} },
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { l.Shutdown(context.Background()) })
		addrs = append(addrs, l.Addr().String())
	}
	srv, cli := net.Pipe()
	go io.Copy(io.Discard, cli) //nolint:errcheck
	h := startTestRouter(b, addrs...).open(wire.NewConn(srv, time.Minute))
	b.Cleanup(func() {
		h.Close()
		srv.Close() //nolint:errcheck
		cli.Close() //nolint:errcheck
	})
	run := func(sql string) {
		if !h.Frame(wire.FrameQuery, []byte(sql)) {
			b.Fatalf("%s: the session ended", sql)
		}
	}
	run("CREATE TABLE t (rid INT, value FLOAT UNCERTAIN)")
	var ins strings.Builder
	ins.WriteString("INSERT INTO t (rid, value) VALUES ")
	for i := 0; i < insertRows; i++ {
		if i > 0 {
			ins.WriteString(", ")
		}
		fmt.Fprintf(&ins, "(%d, GAUSSIAN(%d, 4))", i, i%100)
	}

	for _, bc := range []struct {
		name string
		sql  string
		rows int
	}{
		{"select", "SELECT rid, value FROM t", scanRows},
		{"insert", ins.String(), insertRows},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(bc.sql)
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			rows := float64(b.N * bc.rows)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rows, "ns/row")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/rows, "allocs/row")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/rows, "B/row")
		})
	}
}
