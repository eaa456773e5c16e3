package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"probdb/internal/core"
	"probdb/internal/dist"
	"probdb/internal/pipe"
	"probdb/internal/region"
)

// affineView is a pdf shape the dist codec does not know — a view over a
// symbolic pdf, as an affine transform computed lazily would be — so
// encoding it takes the collapse fallback.
type affineView struct{ dist.Dist }

// encodeFixture builds a table whose rows, one per byte of spec, cover what
// a result cell can hold: NULL certain values, a joint dependency set (a,b)
// that is Gaussian, discrete or partial, a column x that is Gaussian,
// uniform, partial discrete or floored, a column y whose discrete mass
// sums past 1 within dist's tolerance (so Mass() clamps it to exactly 1)
// unless the row makes it partial, and a column v the codec cannot encode.
func encodeFixture(tb testing.TB, spec []byte) *core.Table {
	tb.Helper()
	schema := core.MustSchema(
		core.Column{Name: "k", Type: core.IntType},
		core.Column{Name: "tag", Type: core.StringType},
		core.Column{Name: "a", Type: core.FloatType, Uncertain: true},
		core.Column{Name: "b", Type: core.FloatType, Uncertain: true},
		core.Column{Name: "x", Type: core.FloatType, Uncertain: true},
		core.Column{Name: "y", Type: core.FloatType, Uncertain: true},
		core.Column{Name: "v", Type: core.FloatType, Uncertain: true},
	)
	tbl := core.MustTable("T", schema, [][]string{{"a", "b"}}, core.NewRegistry())
	for i, c := range spec {
		vals := map[string]core.Value{}
		if c%5 != 0 {
			vals["k"] = core.Int(int64(i))
		}
		if c%7 != 0 {
			vals["tag"] = core.Str(fmt.Sprintf("t%d", i%13))
		}
		f := float64(i % 40)
		var ab dist.Dist
		switch (c >> 1) % 3 {
		case 0:
			mg, err := dist.NewMultiGaussian([]float64{f, f / 2}, [][]float64{{2, 0.5}, {0.5, 1}})
			if err != nil {
				tb.Fatal(err)
			}
			ab = mg
		case 1:
			ab = dist.NewDiscreteJoint(2, []dist.Point{{X: []float64{f, 1}, P: 0.5}, {X: []float64{f + 1, 2}, P: 0.5}})
		default:
			ab = dist.NewDiscreteJoint(2, []dist.Point{{X: []float64{f, 1}, P: 0.4}, {X: []float64{f + 1, 2}, P: 0.5}})
		}
		var x dist.Dist
		switch (c >> 3) % 4 {
		case 0:
			x = dist.NewGaussian(f, 3)
		case 1:
			x = dist.NewUniform(f, f+6)
		case 2:
			x = dist.NewDiscrete([]float64{f, f + 1, f + 2}, []float64{0.25, 0.5, 0.125})
		default:
			x = dist.NewGaussian(f, 2).Floor(0, region.Compare(region.GT, f-1))
		}
		y := dist.NewDiscrete([]float64{f, f + 3}, []float64{0.5, 0.5 + 5e-11})
		if (c>>5)%4 == 3 {
			y = dist.NewDiscrete([]float64{f, f + 3}, []float64{0.5, 0.2})
		}
		if err := tbl.Insert(core.Row{Values: vals, PDFs: []core.PDF{
			{Attrs: []string{"a", "b"}, Dist: ab},
			{Attrs: []string{"x"}, Dist: x},
			{Attrs: []string{"y"}, Dist: y},
			{Attrs: []string{"v"}, Dist: affineView{dist.NewGaussian(f, 1)}},
		}}); err != nil {
			tb.Fatal(err)
		}
	}
	return tbl
}

// streamedPayloads encodes Π_cols(t) the way a server streams it: the
// projection kernel over executor-sized batches, each batch appended by a
// BatchEncoder into one reused buffer.
func streamedPayloads(tb testing.TB, t *core.Table, cols []string) [][]byte {
	tb.Helper()
	k, err := t.PlanProject(cols...)
	if err != nil {
		tb.Fatal(err)
	}
	enc := NewBatchEncoder(k.Out())
	var out [][]byte
	var frame []byte
	tups := t.Tuples()
	for lo := 0; lo == 0 || lo < len(tups); lo += pipe.BatchSize {
		hi := min(lo+pipe.BatchSize, len(tups))
		frame = enc.AppendNext(frame[:0], k.AppendBatch(nil, tups[lo:hi]))
		out = append(out, append([]byte(nil), frame...))
	}
	return out
}

// materializedPayloads is the reference: core.Project's owned table — which
// drops the phantom sets no row needs — converted by RowsOf and encoded by
// EncodeRowBatch in the same batches.
func materializedPayloads(tb testing.TB, t *core.Table, cols []string) [][]byte {
	tb.Helper()
	proj, err := t.Project(cols...)
	if err != nil {
		tb.Fatal(err)
	}
	rows := RowsOf(proj, proj.Tuples())
	var out [][]byte
	for lo, seq := 0, uint64(0); lo == 0 || lo < len(rows); lo, seq = lo+pipe.BatchSize, seq+1 {
		b := &RowBatch{Seq: seq, Rows: rows[lo:min(lo+pipe.BatchSize, len(rows))]}
		if seq == 0 {
			b.Name, b.Cols = proj.Name, ColumnsOf(proj)
		}
		out = append(out, EncodeRowBatch(b))
	}
	return out
}

// legacyCell is how a pdf cell was encoded before cells were appended in
// place: the codec's bytes in their own slice (the collapse fallback for
// shapes it panics on), then the length and a copy.
func legacyCell(d dist.Dist) (b []byte) {
	enc := func() (e []byte) {
		defer func() {
			if recover() != nil {
				e = dist.Encode(dist.Collapse(d, dist.Options{}))
			}
		}()
		return dist.Encode(d)
	}()
	return append(binary.AppendUvarint(nil, uint64(len(enc))), enc...)
}

// checkEncoding compares the streamed and the materialized encodings of
// Π_cols(t) batch by batch, and every pdf cell against legacyCell.
func checkEncoding(tb testing.TB, t *core.Table, cols []string) {
	tb.Helper()
	got, want := streamedPayloads(tb, t, cols), materializedPayloads(tb, t, cols)
	if len(got) != len(want) {
		tb.Fatalf("Π%v: %d batches streamed, %d materialized", cols, len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			tb.Fatalf("Π%v batch %d: streamed and materialized payloads differ\nstreamed:     %x\nmaterialized: %x", cols, i, got[i], want[i])
		}
		b, err := DecodeRowBatch(got[i])
		if err != nil {
			tb.Fatalf("Π%v batch %d: %v", cols, i, err)
		}
		if b.Seq != uint64(i) || (b.Cols != nil) != (i == 0) {
			tb.Fatalf("Π%v batch %d: seq %d, header %v", cols, i, b.Seq, b.Cols != nil)
		}
	}
	for _, tup := range t.Tuples() {
		for _, l := range t.Locators() {
			if !l.Uncertain() {
				continue
			}
			d := l.Dist(tup)
			if g, w := appendDist([]byte{0xAA}, d), append([]byte{0xAA}, legacyCell(d)...); !bytes.Equal(g, w) {
				tb.Fatalf("pdf %v: appended %x, legacy %x", d, g, w)
			}
		}
	}
}

// encodeProjections are the column lists both encoders are compared on: a
// joint set with a projected-away member beside invisible partial, clamped
// and unencodable sets, the codec fallback and a partial column visible,
// certain columns only, a reordering, and every column in order.
var encodeProjections = [][]string{
	{"k", "a"},
	{"tag", "x", "v"},
	{"k"},
	{"y", "b", "k"},
	{"k", "tag", "a", "b", "x", "y", "v"},
}

// TestAppendRowBatchMatchesEncode: the server's encoder — projection kernel,
// column locators, rows appended into a reused frame — produces the bytes of
// EncodeRowBatch(RowsOf(core.Project(...))) for every batch: over the base
// table (whose clamped column y is dropped by the materialized projection
// and kept by the streamed one), over one where y is partial in some rows,
// and over a floored selection.
func TestAppendRowBatchMatchesEncode(t *testing.T) {
	spec := make([]byte, 600)
	for i := range spec {
		spec[i] = byte(i*37+i/3) &^ (3 << 5) // y is never partial
	}
	clamped := encodeFixture(t, spec)
	for i := range spec {
		spec[i] = byte(i*37 + i/3)
	}
	mixed := encodeFixture(t, spec)
	floored, err := mixed.Select(core.Cmp(core.Col("x"), region.LT, core.LitF(25)))
	if err != nil {
		t.Fatal(err)
	}
	if floored.Len() == 0 || floored.Len() == mixed.Len() {
		t.Fatalf("the floor kept %d of %d rows", floored.Len(), mixed.Len())
	}
	for _, tbl := range []*core.Table{clamped, mixed, floored} {
		for _, cols := range encodeProjections {
			checkEncoding(t, tbl, cols)
		}
	}
	if p, err := clamped.Project("k"); err != nil || len(p.DepSets()) != 2 {
		t.Fatalf("materialized Π(k) keeps Δ = %v (%v), want the partial sets (a,b) and x only", p.DepSets(), err)
	}
	checkEncoding(t, encodeFixture(t, nil), []string{"k", "x"})
}

// FuzzAppendRowBatch fuzzes the same equivalence: data picks one row shape
// per byte and, with its first byte, the projected columns.
func FuzzAppendRowBatch(f *testing.F) {
	f.Add([]byte{0x7f, 1, 2, 3})
	f.Add([]byte{0x01, 0x60, 0x61, 0xff, 0x00, 0x1e})
	f.Add(bytes.Repeat([]byte{0x55, 0xaa, 0x0f}, 100))
	names := []string{"k", "tag", "a", "b", "x", "y", "v"}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 300 {
			return
		}
		var cols []string
		for i, n := range names {
			if data[0]&(1<<i) != 0 {
				cols = append(cols, n)
			}
		}
		if len(cols) == 0 {
			return
		}
		checkEncoding(t, encodeFixture(t, data[1:]), cols)
	})
}
