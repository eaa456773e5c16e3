package wire

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"probdb/internal/core"
	"probdb/internal/dist"
	"probdb/internal/region"
)

// TestFrameRoundTrip writes and reads back every frame type.
func TestFrameRoundTrip(t *testing.T) {
	cases := []struct {
		t       FrameType
		payload []byte
	}{
		{FrameQuery, []byte("SELECT rid FROM readings WHERE PROB(value) > 0.5")},
		{FrameResult, EncodeResult(&Result{Message: "ok", Affected: 3})},
		{FrameRowBatch, EncodeRowBatch(&RowBatch{Name: "t", Cols: []Column{{Name: "k", Type: core.IntType}}})},
		{FrameError, []byte("query: no table \"nope\"")},
		{FramePing, nil},
		{FramePong, nil},
		{FrameQuery, bytes.Repeat([]byte("x"), 1<<16)}, // multi-page payload
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, c.t, c.payload); err != nil {
			t.Fatalf("%v: write: %v", c.t, err)
		}
		ft, payload, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("%v: read: %v", c.t, err)
		}
		if ft != c.t {
			t.Fatalf("type %v, want %v", ft, c.t)
		}
		if !bytes.Equal(payload, c.payload) {
			t.Fatalf("%v: payload mismatch (%d vs %d bytes)", c.t, len(payload), len(c.payload))
		}
	}
}

func TestFrameRejectsMalformedHeader(t *testing.T) {
	// Zero length (no type byte).
	if _, _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 0})); err == nil {
		t.Fatal("zero-length frame accepted")
	}
	// Length above the cap.
	if _, _, err := ReadFrame(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff, byte(FramePing)})); err == nil {
		t.Fatal("oversized frame accepted")
	}
	// Unknown frame types, the retired ResultEnd (7) among them; the WAL
	// shipping frames keep their values across the retirement.
	for _, ft := range []byte{0, 7, 10, 99} {
		if _, _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 1, ft})); err == nil {
			t.Fatalf("unknown frame type %d accepted", ft)
		}
	}
	if FrameWALFetch != 8 || FrameWALSegment != 9 {
		t.Fatalf("WALFetch = %d, WALSegment = %d, want 8 and 9", FrameWALFetch, FrameWALSegment)
	}
	// Truncated payload.
	if _, _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 5, byte(FrameQuery), 'S'})); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

// TestResultRoundTrip encodes and decodes an answer with every cell
// variant — all value kinds, a symbolic pdf, a floored pdf, a discrete pdf
// and a missing cell — in its header batch, and every stats counter in its
// Result. The always-0 counters and the Table do not cross in a Result.
func TestResultRoundTrip(t *testing.T) {
	gauss := dist.NewGaussian(20, 5)
	floored := gauss.Floor(0, region.NewSet(region.Below(25, true)))
	disc := dist.NewDiscrete([]float64{1, 3}, []float64{0.4, 0.6})
	in := &Result{
		Message:  "3 rows",
		Affected: 3,
		InTxn:    true,
		Stats: Stats{
			Rows: 3, LatencyMicros: 1234, WALBytes: 5,
			IndexProbes: 1, IndexPruned: 88, PlannerFallbacks: 1,
			WALFsyncs: 1, WALGroupSize: 9, TxnConflicts: 2,
			Rejections: 11, ShedBytes: 12, QueueWaitMicros: 13,
			VecTuples: 14, ScalarTuples: 15,
		},
		Table: &Table{
			Name: "σ(readings)",
			Cols: []Column{
				{Name: "rid", Type: core.IntType},
				{Name: "name", Type: core.StringType},
				{Name: "flag", Type: core.BoolType},
				{Name: "ratio", Type: core.FloatType},
				{Name: "value", Type: core.FloatType, Uncertain: true},
				{Name: "cnt", Type: core.IntType, Uncertain: true},
			},
			Rows: []Row{
				{Exists: 1, Cells: []Cell{
					{Kind: CellValue, Value: core.Int(1)},
					{Kind: CellValue, Value: core.Str("alpha")},
					{Kind: CellValue, Value: core.Bool(true)},
					{Kind: CellValue, Value: core.Float(0.25)},
					{Kind: CellPDF, PDF: gauss},
					{Kind: CellPDF, PDF: disc},
				}},
				{Exists: 0.5, Cells: []Cell{
					{Kind: CellValue, Value: core.Int(-9)},
					{Kind: CellValue, Value: core.Null},
					{Kind: CellValue, Value: core.Bool(false)},
					{Kind: CellValue, Value: core.Float(math.Inf(1))},
					{Kind: CellPDF, PDF: floored},
					{Kind: CellNone},
				}},
			},
		},
	}

	out, err := DecodeResult(EncodeResult(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Message != in.Message || out.Affected != in.Affected || out.Stats != in.Stats || !out.InTxn || out.Table != nil {
		t.Fatalf("scalar fields: %+v vs %+v", out, in)
	}
	dead := *in
	dead.Stats.PageReads, dead.Stats.PageHits, dead.Stats.PageWrites = 7, 40, 2
	dead.Stats.MassCacheHits, dead.Stats.MassCacheMiss = 3, 4
	if !bytes.Equal(EncodeResult(&dead), EncodeResult(in)) {
		t.Fatal("an always-0 counter reached the Result payload")
	}

	b, err := DecodeRowBatch(EncodeRowBatch(&RowBatch{Name: in.Table.Name, Cols: in.Table.Cols, Rows: in.Table.Rows}))
	if err != nil {
		t.Fatal(err)
	}
	out.Table = &Table{Name: b.Name, Cols: b.Cols, Rows: b.Rows}
	if out.Table.Name != in.Table.Name {
		t.Fatalf("table name lost: %+v", out.Table)
	}
	if !reflect.DeepEqual(out.Table.Cols, in.Table.Cols) {
		t.Fatalf("cols: %+v vs %+v", out.Table.Cols, in.Table.Cols)
	}
	if len(out.Table.Rows) != 2 {
		t.Fatalf("rows: %d", len(out.Table.Rows))
	}
	for ri, row := range out.Table.Rows {
		want := in.Table.Rows[ri]
		if row.Exists != want.Exists {
			t.Fatalf("row %d exists %v vs %v", ri, row.Exists, want.Exists)
		}
		for ci, cell := range row.Cells {
			wc := want.Cells[ci]
			if cell.Kind != wc.Kind {
				t.Fatalf("row %d cell %d kind %v vs %v", ri, ci, cell.Kind, wc.Kind)
			}
			switch cell.Kind {
			case CellValue:
				// Value.Equal has SQL NULL semantics (NULL ≠ NULL), so
				// compare NULLs by kind.
				if wc.Value.IsNull() {
					if !cell.Value.IsNull() {
						t.Fatalf("row %d cell %d: want NULL, got %v", ri, ci, cell.Value)
					}
				} else if !cell.Value.Equal(wc.Value) {
					t.Fatalf("row %d cell %d value %v vs %v", ri, ci, cell.Value, wc.Value)
				}
			case CellPDF:
				// The pdf survives with its distribution intact: same mass,
				// mean and rendering.
				if math.Abs(cell.PDF.Mass()-wc.PDF.Mass()) > 1e-12 {
					t.Fatalf("row %d cell %d mass %v vs %v", ri, ci, cell.PDF.Mass(), wc.PDF.Mass())
				}
				if got, want := cell.PDF.String(), wc.PDF.String(); got != want {
					t.Fatalf("row %d cell %d pdf %q vs %q", ri, ci, got, want)
				}
			}
		}
	}

	// Rendering must include symbolic pdf forms and the existence marker.
	rendered := out.String()
	for _, want := range []string{"Gaus(20,", "Floor{", "rid=1", `name="alpha"`, "Pr(exists)=0.5", "?"} {
		if !bytes.Contains([]byte(rendered), []byte(want)) {
			t.Fatalf("rendering misses %q:\n%s", want, rendered)
		}
	}
}

// TestResultMessageOnly round-trips a table-less command result.
func TestResultMessageOnly(t *testing.T) {
	in := &Result{Message: "created readings (rid INT, value FLOAT UNCERTAIN)", Affected: 0,
		Stats: Stats{LatencyMicros: 55, WALBytes: 1}}
	out, err := DecodeResult(EncodeResult(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Table != nil || out.Message != in.Message || out.Stats != in.Stats {
		t.Fatalf("round trip: %+v", out)
	}
	if out.String() != in.Message {
		t.Fatalf("String() = %q", out.String())
	}
}

// TestResultDecodeRejectsTruncations truncates a valid payload at every
// byte offset: each prefix must error, never panic. A trailing byte and an
// undefined flag bit (bit 0 marked an embedded table up to version 8) are
// refused too.
func TestResultDecodeRejectsTruncations(t *testing.T) {
	payload := EncodeResult(&Result{Message: "m", Affected: 300, Stats: Stats{Rows: 300, LatencyMicros: 1 << 20}})
	for cut := 0; cut < len(payload); cut++ {
		if _, err := DecodeResult(payload[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(payload))
		}
	}
	if _, err := DecodeResult(append(append([]byte{}, payload...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	for _, bit := range []byte{1, 4, 0x80} {
		flagged := append([]byte{}, payload...)
		flagged[1] |= bit
		if _, err := DecodeResult(flagged); err == nil {
			t.Fatalf("flag bit %#x accepted", bit)
		}
	}
}

// TestRowsOfTable converts an executed query result into wire form with
// ColumnsOf and RowsOf, and back through its header batch.
func TestRowsOfTable(t *testing.T) {
	schema := core.MustSchema(
		core.Column{Name: "rid", Type: core.IntType},
		core.Column{Name: "value", Type: core.FloatType, Uncertain: true},
	)
	tb := core.MustTable("readings", schema, nil, nil)
	if err := tb.Insert(core.Row{
		Values: map[string]core.Value{"rid": core.Int(7)},
		PDFs:   []core.PDF{{Attrs: []string{"value"}, Dist: dist.NewGaussian(20, 5)}},
	}); err != nil {
		t.Fatal(err)
	}
	out, err := DecodeRowBatch(EncodeRowBatch(&RowBatch{Name: tb.Name, Cols: ColumnsOf(tb), Rows: RowsOf(tb, tb.Tuples())}))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 1 {
		t.Fatalf("rows: %d", len(out.Rows))
	}
	row := out.Rows[0]
	if !row.Cells[0].Value.Equal(core.Int(7)) {
		t.Fatalf("rid cell: %+v", row.Cells[0])
	}
	if row.Cells[1].Kind != CellPDF || math.Abs(row.Cells[1].PDF.Mean(0)-20) > 1e-9 {
		t.Fatalf("value cell: %+v", row.Cells[1])
	}
}
