package wire

import (
	"errors"
	"net"
	"reflect"
	"strings"
	"testing"

	"probdb/internal/core"
	"probdb/internal/dist"
)

func testHeader() (string, []Column) {
	return "σ(readings)", []Column{
		{Name: "rid", Type: core.IntType},
		{Name: "value", Type: core.FloatType, Uncertain: true},
	}
}

func testRow(i int) Row {
	return Row{Exists: 1, Cells: []Cell{
		{Kind: CellValue, Value: core.Int(int64(i))},
		{Kind: CellPDF, PDF: dist.NewGaussian(float64(10+i), 2)},
	}}
}

// TestRowBatchRoundTrip encodes and decodes a header batch and a
// continuation batch.
func TestRowBatchRoundTrip(t *testing.T) {
	name, cols := testHeader()
	for _, in := range []*RowBatch{
		{Seq: 0, Name: name, Cols: cols, Rows: []Row{testRow(1), testRow(2)}},
		{Seq: 3, Rows: []Row{testRow(7)}},
		{Seq: 0, Name: "empty", Cols: cols}, // header-only batch (empty result)
	} {
		out, err := DecodeRowBatch(EncodeRowBatch(in))
		if err != nil {
			t.Fatalf("seq %d: %v", in.Seq, err)
		}
		if out.Seq != in.Seq || out.Name != in.Name {
			t.Fatalf("seq/name: %+v vs %+v", out, in)
		}
		if (out.Cols == nil) != (in.Cols == nil) || !reflect.DeepEqual(append([]Column{}, out.Cols...), append([]Column{}, in.Cols...)) {
			t.Fatalf("cols: %+v vs %+v", out.Cols, in.Cols)
		}
		if len(out.Rows) != len(in.Rows) {
			t.Fatalf("rows: %d vs %d", len(out.Rows), len(in.Rows))
		}
		for ri, row := range out.Rows {
			if row.Exists != in.Rows[ri].Exists || len(row.Cells) != len(in.Rows[ri].Cells) {
				t.Fatalf("row %d: %+v", ri, row)
			}
		}
	}
}

// TestRowBatchDecodeRejectsTruncations truncates a valid batch payload at
// every offset; each prefix must error, never panic.
func TestRowBatchDecodeRejectsTruncations(t *testing.T) {
	name, cols := testHeader()
	payload := EncodeRowBatch(&RowBatch{Seq: 0, Name: name, Cols: cols, Rows: []Row{testRow(1)}})
	for cut := 0; cut < len(payload); cut++ {
		if _, err := DecodeRowBatch(payload[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(payload))
		}
	}
	if _, err := DecodeRowBatch(append(append([]byte{}, payload...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// serveFrames runs a one-shot fake server on the other end of a pipe: it
// reads the Query frame, then writes the scripted response frames.
func serveFrames(t *testing.T, conn net.Conn, frames scripted) {
	t.Helper()
	go func() {
		defer conn.Close()
		if _, _, err := ReadFrame(conn); err != nil {
			return
		}
		for _, f := range frames {
			if err := WriteFrame(conn, f.t, f.p); err != nil {
				return
			}
		}
	}()
}

type scriptedFrame = struct {
	t FrameType
	p []byte
}

type scripted = []scriptedFrame

// openScripted runs QueryStream against a fake server that answers with
// frames.
func openScripted(t *testing.T, frames scripted) (*Stream, error) {
	t.Helper()
	cli, srv := net.Pipe()
	t.Cleanup(func() { cli.Close() }) //nolint:errcheck
	serveFrames(t, srv, frames)
	return NewClient(cli).QueryStream(`SELECT * FROM readings`)
}

// readEachWay reads one scripted answer three ways — Client.Query (which
// also renders the table it assembled), a NextBatch loop and a NextRaw
// loop — and returns each reader's error by name.
func readEachWay(t *testing.T, frames scripted) map[string]error {
	t.Helper()
	errs := map[string]error{}
	cli, srv := net.Pipe()
	defer cli.Close()
	serveFrames(t, srv, frames)
	res, err := NewClient(cli).Query(`SELECT * FROM readings`)
	if err == nil {
		_ = res.String() // must not panic on anything Query accepted
	}
	errs["Query"] = err
	for _, way := range []string{"NextBatch", "NextRaw"} {
		st, err := openScripted(t, frames)
		for err == nil {
			if way == "NextBatch" {
				var rows []Row
				if rows, err = st.NextBatch(); rows == nil {
					break
				}
				for _, row := range rows {
					_ = RenderRow(st.Columns(), row)
				}
			} else if b, e := st.NextRaw(); b == nil {
				err = e
				break
			}
		}
		if err == nil {
			_, err = st.Result()
		}
		errs[way] = err
	}
	return errs
}

func rowBatchFrame(b *RowBatch) scriptedFrame {
	return scriptedFrame{FrameRowBatch, EncodeRowBatch(b)}
}

var resultFrame = scriptedFrame{FrameResult, EncodeResult(&Result{Affected: 3, Stats: Stats{Rows: 3}})}

// TestStreamRowWidth: a batch whose rows are narrower or wider than the
// header is refused by every reader, so Query never hands out a table that
// cannot be rendered. Only a batch without rows may name another width.
func TestStreamRowWidth(t *testing.T) {
	name, cols := testHeader()
	one := Row{Exists: 1, Cells: []Cell{{Kind: CellValue, Value: core.Int(1)}}}
	three := testRow(3)
	three.Cells = append(three.Cells, Cell{Kind: CellNone})
	for _, tc := range []struct {
		name string
		bad  *RowBatch
	}{
		{"narrow", &RowBatch{Seq: 1, Rows: []Row{one}}},
		{"wide", &RowBatch{Seq: 1, Rows: []Row{three}}},
	} {
		errs := readEachWay(t, scripted{
			rowBatchFrame(&RowBatch{Seq: 0, Name: name, Cols: cols, Rows: []Row{testRow(1)}}),
			rowBatchFrame(tc.bad),
			resultFrame,
		})
		for way, err := range errs {
			if err == nil || !strings.Contains(err.Error(), "header has 2") {
				t.Errorf("%s row through %s: err = %v, want a width refusal", tc.name, way, err)
			}
		}
	}
	empty := AppendRawBatch(nil, 1, "", nil, 5, 0, nil)
	errs := readEachWay(t, scripted{
		rowBatchFrame(&RowBatch{Seq: 0, Name: name, Cols: cols, Rows: []Row{testRow(1)}}),
		{FrameRowBatch, empty},
		resultFrame,
	})
	for way, err := range errs {
		if err != nil {
			t.Errorf("empty batch of another width through %s: %v", way, err)
		}
	}
}

// TestStreamGrammar: Stream accepts RowBatch(seq 0, header) RowBatch* then
// Result or Error, and a lone Result or Error, and refuses every other
// shape through every reader.
func TestStreamGrammar(t *testing.T) {
	name, cols := testHeader()
	b0 := rowBatchFrame(&RowBatch{Seq: 0, Name: name, Cols: cols, Rows: []Row{testRow(1)}})
	b1 := rowBatchFrame(&RowBatch{Seq: 1, Rows: []Row{testRow(2), testRow(3)}})
	for _, tc := range []struct {
		name   string
		frames scripted
		ok     bool
	}{
		{"rows then Result", scripted{b0, b1, rowBatchFrame(&RowBatch{Seq: 2}), resultFrame}, true},
		{"header only", scripted{rowBatchFrame(&RowBatch{Seq: 0, Name: name, Cols: cols}), resultFrame}, true},
		{"lone Result", scripted{resultFrame}, true},
		{"seq skip", scripted{b0, rowBatchFrame(&RowBatch{Seq: 2, Rows: []Row{testRow(2)}}), resultFrame}, false},
		{"repeated header", scripted{b0, rowBatchFrame(&RowBatch{Seq: 1, Name: name, Cols: cols}), resultFrame}, false},
		{"headerless first batch", scripted{rowBatchFrame(&RowBatch{Seq: 0, Rows: []Row{testRow(1)}}), resultFrame}, false},
		{"first batch not seq 0", scripted{rowBatchFrame(&RowBatch{Seq: 1, Name: name, Cols: cols}), resultFrame}, false},
		{"Pong in an answer", scripted{b0, {FramePong, nil}}, false},
		{"Query in an answer", scripted{{FrameQuery, []byte("SELECT 1")}}, false},
		{"Result with trailing bytes", scripted{b0, {FrameResult, append(EncodeResult(&Result{}), 0)}}, false},
		{"error mid-stream", scripted{b0, b1, {FrameError, EncodeError(ErrGeneric, 0, "boom")}}, false},
		{"lone error", scripted{{FrameError, EncodeError(ErrGeneric, 0, "boom")}}, false},
	} {
		for way, err := range readEachWay(t, tc.frames) {
			if (err == nil) != tc.ok {
				t.Errorf("%s through %s: err = %v, want ok = %v", tc.name, way, err, tc.ok)
			}
		}
	}

	// A mid-stream Error is the server's: a *ServerError, sticky, and the
	// Result never becomes available.
	st, err := openScripted(t, scripted{b0, {FrameError, EncodeError(ErrGeneric, 0, "boom")}})
	if err != nil {
		t.Fatal(err)
	}
	if rows, err := st.NextBatch(); err != nil || len(rows) != 1 {
		t.Fatalf("first batch: %d rows, %v", len(rows), err)
	}
	var se *ServerError
	if _, err := st.NextBatch(); !errors.As(err, &se) {
		t.Fatalf("err = %v, want *ServerError", err)
	}
	if _, err := st.NextBatch(); !errors.As(err, &se) {
		t.Fatalf("error not sticky: %v", err)
	}
	if _, err := st.Result(); err == nil {
		t.Fatal("Result() after a mid-stream Error")
	}
}

// TestStreamReconnectSeq models the reconnect hazard: a client read part of
// an answer, the connection dropped, and the resumed stream replays a batch
// it already delivered (duplicate seq), resumes past the gap, or restarts
// from a stale batch 0. Each is refused with an error naming the offending
// and expected sequence numbers — never silently reordered or deduplicated
// — after exactly the rows of the batches before it were handed out, and
// the stream stays poisoned.
func TestStreamReconnectSeq(t *testing.T) {
	name, cols := testHeader()
	b0 := rowBatchFrame(&RowBatch{Seq: 0, Name: name, Cols: cols, Rows: []Row{testRow(1)}})
	b1 := rowBatchFrame(&RowBatch{Seq: 1, Rows: []Row{testRow(2)}})
	for _, tc := range []struct {
		name string
		bad  *RowBatch
		want string
	}{
		{"duplicate seq after reconnect", &RowBatch{Seq: 1, Rows: []Row{testRow(2)}}, "seq 1 (header false), want seq 2"},
		{"out-of-order seq after reconnect", &RowBatch{Seq: 3, Rows: []Row{testRow(9)}}, "seq 3 (header false), want seq 2"},
		{"rewound seq after reconnect", &RowBatch{Seq: 0, Name: name, Cols: cols}, "seq 0 (header true), want seq 2"},
	} {
		st, err := openScripted(t, scripted{b0, b1, rowBatchFrame(tc.bad), resultFrame})
		if err != nil {
			t.Fatal(err)
		}
		delivered := 0
		for {
			rows, err := st.NextBatch()
			if err != nil {
				if !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s: err = %v, want it to name %q", tc.name, err, tc.want)
				}
				break
			}
			if rows == nil {
				t.Fatalf("%s: accepted", tc.name)
			}
			delivered += len(rows)
		}
		if delivered != 2 {
			t.Errorf("%s: %d rows delivered before the refusal, want 2", tc.name, delivered)
		}
		if rows, err := st.NextBatch(); rows != nil || err == nil {
			t.Errorf("%s: poisoned stream went on: %d rows, %v", tc.name, len(rows), err)
		}
	}
}

// TestQueryStreamBatches drives a Stream over a scripted batch sequence:
// batches arrive incrementally, empty interior batches are skipped, and the
// trailing stats land in Result.
func TestQueryStreamBatches(t *testing.T) {
	name, cols := testHeader()
	cli, srv := net.Pipe()
	defer cli.Close()
	serveFrames(t, srv, scripted{
		{FrameRowBatch, EncodeRowBatch(&RowBatch{Seq: 0, Name: name, Cols: cols, Rows: []Row{testRow(1), testRow(2)}})},
		{FrameRowBatch, EncodeRowBatch(&RowBatch{Seq: 1})}, // empty interior batch
		{FrameRowBatch, EncodeRowBatch(&RowBatch{Seq: 2, Rows: []Row{testRow(3)}})},
		{FrameResult, EncodeResult(&Result{Affected: 3, Stats: Stats{Rows: 3, LatencyMicros: 7}})},
	})
	st, err := NewClient(cli).QueryStream(`SELECT * FROM readings`)
	if err != nil {
		t.Fatal(err)
	}
	if st.Name() != name || len(st.Columns()) != 2 {
		t.Fatalf("header: %q %v", st.Name(), st.Columns())
	}
	var sizes []int
	for {
		rows, err := st.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if rows == nil {
			break
		}
		sizes = append(sizes, len(rows))
	}
	if !reflect.DeepEqual(sizes, []int{2, 1}) {
		t.Fatalf("batch sizes: %v", sizes)
	}
	res, err := st.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 3 || res.Stats.LatencyMicros != 7 {
		t.Fatalf("result: %+v", res)
	}
}

// TestQueryDrainsStreamedResult: Query assembles an answer's batches into
// one Table, which renders exactly as the rows sent, beside the stats and
// message of its Result.
func TestQueryDrainsStreamedResult(t *testing.T) {
	name, cols := testHeader()
	full := &Result{Message: "3 rows", Affected: 3, Stats: Stats{Rows: 3, LatencyMicros: 9},
		Table: &Table{Name: name, Cols: cols, Rows: []Row{testRow(1), testRow(2), testRow(3)}}}

	cli, srv := net.Pipe()
	defer cli.Close()
	serveFrames(t, srv, scripted{
		{FrameRowBatch, EncodeRowBatch(&RowBatch{Seq: 0, Name: name, Cols: cols, Rows: full.Table.Rows[:2]})},
		{FrameRowBatch, EncodeRowBatch(&RowBatch{Seq: 1, Rows: full.Table.Rows[2:]})},
		{FrameResult, EncodeResult(full)},
	})
	got, err := NewClient(cli).Query(`SELECT * FROM readings`)
	if err != nil {
		t.Fatal(err)
	}
	if got.Table == nil || got.Table.Render() != full.Table.Render() {
		t.Fatalf("assembled table:\n%v\nwant:\n%s", got.Table, full.Table.Render())
	}
	if got.Message != full.Message || got.Affected != full.Affected || got.Stats != full.Stats {
		t.Fatalf("got %+v, want %+v", got, full)
	}
}

// TestQueryStreamMidStreamError: an Error frame after some batches surfaces
// as *ServerError from NextBatch and from a draining Query.
func TestQueryStreamMidStreamError(t *testing.T) {
	name, cols := testHeader()
	frames := scripted{
		{FrameRowBatch, EncodeRowBatch(&RowBatch{Seq: 0, Name: name, Cols: cols, Rows: []Row{testRow(1)}})},
		{FrameError, []byte("query: disk on fire")},
	}
	cli, srv := net.Pipe()
	defer cli.Close()
	serveFrames(t, srv, frames)
	st, err := NewClient(cli).QueryStream(`SELECT * FROM readings`)
	if err != nil {
		t.Fatal(err)
	}
	if rows, err := st.NextBatch(); err != nil || len(rows) != 1 {
		t.Fatalf("first batch: %v rows, err %v", len(rows), err)
	}
	_, err = st.NextBatch()
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *ServerError", err)
	}
	if _, err := st.Result(); err == nil {
		t.Fatal("Result() succeeded after mid-stream error")
	}

	cli2, srv2 := net.Pipe()
	defer cli2.Close()
	serveFrames(t, srv2, frames)
	if _, err := NewClient(cli2).Query(`SELECT * FROM readings`); !errors.As(err, &se) {
		t.Fatalf("Query err = %v, want *ServerError", err)
	}
}

// TestQueryStreamRejectsBadSequence: a seq gap poisons the stream.
func TestQueryStreamRejectsBadSequence(t *testing.T) {
	name, cols := testHeader()
	cli, srv := net.Pipe()
	defer cli.Close()
	serveFrames(t, srv, scripted{
		{FrameRowBatch, EncodeRowBatch(&RowBatch{Seq: 0, Name: name, Cols: cols, Rows: []Row{testRow(1)}})},
		{FrameRowBatch, EncodeRowBatch(&RowBatch{Seq: 2, Rows: []Row{testRow(2)}})},
	})
	st, err := NewClient(cli).QueryStream(`SELECT * FROM readings`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.NextBatch(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.NextBatch(); err == nil {
		t.Fatal("seq gap accepted")
	}
	// The error is sticky.
	if _, err := st.NextBatch(); err == nil {
		t.Fatal("poisoned stream kept going")
	}
}
