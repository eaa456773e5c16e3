package wire

import (
	"bytes"
	"math"
	"math/rand"
	"net"
	"testing"

	"probdb/internal/core"
	"probdb/internal/dist"
	"probdb/internal/region"
)

// rawSeedBatches are RowBatch payloads with every cell kind, every value
// tag and the pdf shapes a result carries, with and without a header.
func rawSeedBatches() [][]byte {
	cols := []Column{
		{Name: "k", Type: core.IntType},
		{Name: "x", Type: core.FloatType, Uncertain: true},
		{Name: "s", Type: core.StringType},
	}
	pdfs := []dist.Dist{
		dist.NewGaussian(20, 5),
		dist.NewUniform(0, 4),
		dist.NewDiscrete([]float64{1, 2}, []float64{0.25, 0.75}),
		dist.NewGaussian(5, 1).Floor(0, region.Compare(region.LT, 5)),
		dist.NewPoisson(3),
	}
	values := []core.Value{core.Int(-7), core.Float(2.5), core.Str("héllo"), core.Bool(true), core.Null}
	var rows []Row
	for i, pd := range pdfs {
		rows = append(rows, Row{Exists: 1 / float64(i+1), Cells: []Cell{
			{Kind: CellValue, Value: core.Int(int64(i))},
			{Kind: CellPDF, PDF: pd},
			{Kind: CellValue, Value: values[i]},
		}})
	}
	rows = append(rows, Row{Exists: 0.5, Cells: []Cell{
		{Kind: CellValue, Value: core.Int(9)}, {Kind: CellNone}, {Kind: CellValue, Value: core.Str("")},
	}})
	return [][]byte{
		EncodeRowBatch(&RowBatch{Seq: 0, Name: "t", Cols: cols, Rows: rows}),
		EncodeRowBatch(&RowBatch{Seq: 3, Rows: rows[2:]}),
		EncodeRowBatch(&RowBatch{Seq: 0, Name: "t", Cols: cols}),
		EncodeRowBatch(&RowBatch{Seq: 1}),
	}
}

// badExistsBatches are one-row RowBatch payloads whose existence
// probability lies outside [0, 1], which every decoding walk refuses.
func badExistsBatches() [][]byte {
	var out [][]byte
	for _, p := range []float64{math.NaN(), -0.5, 1.5} {
		out = append(out, EncodeRowBatch(&RowBatch{Seq: 0, Name: "t", Cols: []Column{{Name: "k", Type: core.IntType}},
			Rows: []Row{{Exists: p, Cells: []Cell{{Kind: CellValue, Value: core.Int(1)}}}}}))
	}
	return out
}

// decodeRawBatch parses a RowBatch payload as NextRaw does, returning its
// head too.
func decodeRawBatch(payload []byte) (*batchFrame, *RawBatch, error) {
	f, err := readBatchFrame(payload)
	if err != nil {
		return nil, nil, err
	}
	b, err := f.raw()
	return f, b, err
}

// rowBytes encodes decoded rows, the form in which two decodings compare.
func rowBytes(rows []Row) []byte {
	var buf []byte
	for _, r := range rows {
		buf = appendRow(buf, r)
	}
	return buf
}

// checkRawMatchesDecode fails t unless decodeRawBatch accepts exactly what
// DecodeRowBatch accepts and, on acceptance, the raw batch's rows — re-emitted
// from their bytes, and cell by cell through Cell — reproduce the decoded
// rows.
func checkRawMatchesDecode(t *testing.T, payload []byte) {
	t.Helper()
	f, rb, rerr := decodeRawBatch(payload)
	b, derr := DecodeRowBatch(payload)
	if (rerr == nil) != (derr == nil) {
		t.Fatalf("%x: raw error %v, decode error %v", payload, rerr, derr)
	}
	if derr != nil {
		return
	}
	if rb.Len() != len(b.Rows) {
		t.Fatalf("%x: %d raw rows, %d decoded", payload, rb.Len(), len(b.Rows))
	}
	var (
		forwarded []byte
		cells     []Row
	)
	for i := 0; i < rb.Len(); i++ {
		whole := rb.Row(i, rb.Width())
		for k := 0; k < rb.Width(); k++ {
			if p := rb.Row(i, k); !bytes.HasPrefix(whole, p) || len(p) >= len(whole) {
				t.Fatalf("%x: row %d's first %d cells are not a proper prefix of the row", payload, i, k)
			}
		}
		forwarded = append(forwarded, whole...)
		row := Row{Exists: b.Rows[i].Exists}
		for j := 0; j < rb.Width(); j++ {
			c, err := rb.Cell(i, j)
			if err != nil {
				t.Fatalf("%x: cell %d,%d: %v", payload, i, j, err)
			}
			row.Cells = append(row.Cells, c)
		}
		cells = append(cells, row)
	}
	again, err := DecodeRowBatch(AppendRawBatch(nil, f.seq, f.name, f.cols, rb.Width(), rb.Len(), forwarded))
	if err != nil {
		t.Fatalf("%x: re-emitted rows: %v", payload, err)
	}
	want := rowBytes(b.Rows)
	if !bytes.Equal(rowBytes(again.Rows), want) {
		t.Fatalf("%x: re-emitted rows decode differently", payload)
	}
	if !bytes.Equal(rowBytes(cells), want) {
		t.Fatalf("%x: Cell decodes differently from DecodeRowBatch", payload)
	}
}

// TestRawBatchMatchesDecode runs the raw-vs-decoded contract over the seed
// batches, each of their truncations and deterministic bit flips.
func TestRawBatchMatchesDecode(t *testing.T) {
	for _, p := range badExistsBatches() {
		if _, err := DecodeRowBatch(p); err == nil {
			t.Errorf("%x: a row's existence probability outside [0, 1] decoded", p)
		}
		checkRawMatchesDecode(t, p)
	}
	r := rand.New(rand.NewSource(5))
	for _, p := range rawSeedBatches() {
		if _, _, err := decodeRawBatch(p); err != nil {
			t.Fatal(err)
		}
		for i := range p {
			checkRawMatchesDecode(t, p[:i])
		}
		for i := 0; i < 500; i++ {
			m := append([]byte{}, p...)
			for k := 0; k <= r.Intn(4); k++ {
				m[r.Intn(len(m))] ^= byte(1 << r.Intn(8))
			}
			checkRawMatchesDecode(t, m)
		}
	}
}

// FuzzRawBatchMatchesDecode: NextRaw's walk accepts exactly what
// DecodeRowBatch accepts, and re-emitting every row's bytes reproduces the
// rows.
func FuzzRawBatchMatchesDecode(f *testing.F) {
	for _, p := range append(rawSeedBatches(), badExistsBatches()...) {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		checkRawMatchesDecode(t, payload)
	})
}

// TestStreamNextRaw: a streamed result read with NextRaw yields the rows
// sent, its empty batches skipped; an answer that is one Result frame has
// no header and no rows.
func TestStreamNextRaw(t *testing.T) {
	cols := []Column{{Name: "k", Type: core.IntType}, {Name: "x", Type: core.FloatType, Uncertain: true}}
	row := func(i int) Row {
		return Row{Exists: 1, Cells: []Cell{
			{Kind: CellValue, Value: core.Int(int64(i))},
			{Kind: CellPDF, PDF: dist.NewGaussian(float64(i), 1)},
		}}
	}
	open := func(frames ...func(w *bytes.Buffer)) *Stream {
		var resp bytes.Buffer
		for _, f := range frames {
			f(&resp)
		}
		srv, cli := net.Pipe()
		t.Cleanup(func() { srv.Close(); cli.Close() }) //nolint:errcheck
		go func() {
			ReadFrame(srv)          //nolint:errcheck // the Query
			srv.Write(resp.Bytes()) //nolint:errcheck
		}()
		st, err := NewClient(cli).QueryStream("SELECT k, x FROM t")
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	batch := func(b *RowBatch) func(w *bytes.Buffer) {
		return func(w *bytes.Buffer) { WriteFrame(w, FrameRowBatch, EncodeRowBatch(b)) } //nolint:errcheck
	}

	st := open(
		batch(&RowBatch{Seq: 0, Name: "t", Cols: cols, Rows: []Row{row(1), row(2)}}),
		batch(&RowBatch{Seq: 1}),
		batch(&RowBatch{Seq: 2, Rows: []Row{row(3)}}),
		func(w *bytes.Buffer) { WriteFrame(w, FrameResult, EncodeResult(&Result{Affected: 3})) }, //nolint:errcheck
	)
	var got []Row
	for {
		b, err := st.NextRaw()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		for i := 0; i < b.Len(); i++ {
			r := Row{Exists: 1}
			for j := 0; j < b.Width(); j++ {
				cell, err := b.Cell(i, j)
				if err != nil {
					t.Fatal(err)
				}
				r.Cells = append(r.Cells, cell)
			}
			got = append(got, r)
		}
	}
	if _, err := st.Result(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rowBytes(got), rowBytes([]Row{row(1), row(2), row(3)})) {
		t.Errorf("NextRaw rows differ from the rows sent")
	}

	st = open(func(w *bytes.Buffer) {
		WriteFrame(w, FrameResult, EncodeResult(&Result{Message: "inserted 1", Affected: 1})) //nolint:errcheck
	})
	if b, err := st.NextRaw(); b != nil || err != nil || st.Columns() != nil {
		t.Errorf("NextRaw over a lone Result frame returned %v, %v (header %v), want nothing", b, err, st.Columns())
	}
	if res, err := st.Result(); err != nil || res.Message != "inserted 1" {
		t.Errorf("Result() = %+v, %v", res, err)
	}
}
