package pipe

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"probdb/internal/core"
	"probdb/internal/dist"
	"probdb/internal/region"
)

// testTable builds a Readings-style table: certain int rid (with NULLs every
// 7th row, to exercise the NULLS-LAST ordering), certain int grp with heavy
// duplication (ties for the stable-order check), and an uncertain Gaussian
// value.
func testTable(tb testing.TB, n int, seed int64) *core.Table {
	tb.Helper()
	r := rand.New(rand.NewSource(seed))
	schema := core.MustSchema(
		core.Column{Name: "rid", Type: core.IntType},
		core.Column{Name: "grp", Type: core.IntType},
		core.Column{Name: "value", Type: core.FloatType, Uncertain: true},
	)
	t := core.MustTable("readings", schema, nil, core.NewRegistry())
	for i := 0; i < n; i++ {
		vals := map[string]core.Value{"grp": core.Int(int64(r.Intn(3)))}
		if i%7 != 3 {
			vals["rid"] = core.Int(int64(i))
		}
		if err := t.Insert(core.Row{
			Values: vals,
			PDFs:   []core.PDF{{Attrs: []string{"value"}, Dist: dist.NewGaussian(r.Float64()*100, 1+r.Float64()*4)}},
		}); err != nil {
			tb.Fatal(err)
		}
	}
	return t
}

func mustDrain(tb testing.TB, root Operator) *core.Table {
	tb.Helper()
	out, err := Drain(context.Background(), root)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

func assertRenderEqual(tb testing.TB, want, got *core.Table) {
	tb.Helper()
	if w, g := want.Render(), got.Render(); w != g {
		tb.Fatalf("rendered output differs:\nmaterialized:\n%s\npipelined:\n%s", w, g)
	}
}

// colLess is the comparator ORDER BY used before keys were extracted, kept
// as the oracle: Values compared on every call, NULLs after every value
// regardless of direction, incomparable kinds tied, ties left to the
// caller's stable order.
func colLess(t *core.Table, col string, desc bool) func(tb *core.Table, a, b *core.Tuple) bool {
	return func(_ *core.Table, a, b *core.Tuple) bool {
		av, _ := t.Value(a, col)
		bv, _ := t.Value(b, col)
		if av.IsNull() || bv.IsNull() {
			return !av.IsNull() && bv.IsNull()
		}
		c, ok := av.Compare(bv)
		if !ok {
			return false
		}
		if desc {
			return c > 0
		}
		return c < 0
	}
}

// colKey is the key extractor the query layer builds for ORDER BY col.
func colKey(t *core.Table, col string) func(*core.Tuple) (core.OrderKey, error) {
	i := t.Schema().Index(col)
	return func(tup *core.Tuple) (core.OrderKey, error) { return tup.OrderKey(i), nil }
}

func TestScanBatches(t *testing.T) {
	tbl := testTable(t, 10, 1)
	s := NewScan(tbl)
	s.SetBatch(3)
	if err := s.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	var sizes []int
	total := 0
	for {
		b, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		sizes = append(sizes, len(b))
		total += len(b)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if total != 10 || fmt.Sprint(sizes) != "[3 3 3 1]" {
		t.Fatalf("batches = %v (total %d), want [3 3 3 1]", sizes, total)
	}
	if n := OpenOperators(); n != 0 {
		t.Fatalf("OpenOperators() = %d after close", n)
	}
}

// TestFilterMatchesSelect: a pipelined Filter over a kernel produces the
// same table, byte for byte, as the materializing Table.Select — including
// pdf floors, existence probabilities and tuple order.
func TestFilterMatchesSelect(t *testing.T) {
	tbl := testTable(t, 300, 2)
	atoms := []core.Atom{
		core.Cmp(core.Col("value"), region.GE, core.LitF(30)),
		core.Cmp(core.Col("grp"), region.NE, core.LitI(1)),
	}
	want, err := tbl.Select(atoms...)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := tbl.PlanSelect(atoms...)
	if err != nil {
		t.Fatal(err)
	}
	got := mustDrain(t, NewFilter(NewScan(tbl), sel))
	assertRenderEqual(t, want, got)
	if n := OpenOperators(); n != 0 {
		t.Fatalf("OpenOperators() = %d after drain", n)
	}
}

// TestProbFilterMatchesThreshold: ProbFilter over a range-threshold kernel
// matches SelectRangeThreshold.
func TestProbFilterMatchesThreshold(t *testing.T) {
	tbl := testTable(t, 200, 3)
	want, err := tbl.SelectRangeThreshold("value", 20, 60, region.GE, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	got := mustDrain(t, NewProbFilter(NewScan(tbl), tbl.PlanRangeThreshold("value", 20, 60, region.GE, 0.5)))
	assertRenderEqual(t, want, got)
}

// TestEquiJoinMatchesLegacy: the streaming EquiJoin operator reproduces
// Table.EquiJoin's pair order and content exactly.
func TestEquiJoinMatchesLegacy(t *testing.T) {
	reg := core.NewRegistry()
	left := keyedTable(t, reg, "l", "l_", 40, 4)
	right := keyedTable(t, reg, "r", "r_", 25, 5)
	want, err := left.EquiJoin(right, "l_k", "r_k")
	if err != nil {
		t.Fatal(err)
	}
	k, err := left.PlanEquiJoin(right, "l_k", "r_k")
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScan(left)
	sc.SetBatch(7)
	got := mustDrain(t, NewEquiJoin(sc, NewScan(right), k))
	assertRenderEqual(t, want, got)
}

// TestCrossJoinMatchesLegacy: the streaming CrossJoin reproduces
// Table.CrossProduct's nested-loop order.
func TestCrossJoinMatchesLegacy(t *testing.T) {
	reg := core.NewRegistry()
	left, right := seqTable(t, reg, "l", "a", 30), seqTable(t, reg, "r", "b", 17)
	want, err := left.CrossProduct(right)
	if err != nil {
		t.Fatal(err)
	}
	k, err := left.PlanCross(right)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScan(left)
	sc.SetBatch(11)
	got := mustDrain(t, NewCrossJoin(sc, NewScan(right), k))
	assertRenderEqual(t, want, got)
}

// keyedTable builds a join side: a certain int key prefix+"k" in [0, 8) and
// an uncertain Gaussian prefix+"x".
func keyedTable(tb testing.TB, reg *core.Registry, name, prefix string, n int, seed int64) *core.Table {
	tb.Helper()
	r := rand.New(rand.NewSource(seed))
	schema := core.MustSchema(
		core.Column{Name: prefix + "k", Type: core.IntType},
		core.Column{Name: prefix + "x", Type: core.FloatType, Uncertain: true},
	)
	t := core.MustTable(name, schema, nil, reg)
	for i := 0; i < n; i++ {
		if err := t.Insert(core.Row{
			Values: map[string]core.Value{prefix + "k": core.Int(int64(r.Intn(8)))},
			PDFs:   []core.PDF{{Attrs: []string{prefix + "x"}, Dist: dist.NewGaussian(r.Float64()*10, 1)}},
		}); err != nil {
			tb.Fatal(err)
		}
	}
	return t
}

// seqTable builds a one-column table holding col = 0 .. n-1.
func seqTable(tb testing.TB, reg *core.Registry, name, col string, n int) *core.Table {
	tb.Helper()
	schema := core.MustSchema(core.Column{Name: col, Type: core.IntType})
	t := core.MustTable(name, schema, nil, reg)
	for i := 0; i < n; i++ {
		if err := t.Insert(core.Row{Values: map[string]core.Value{col: core.Int(int64(i))}}); err != nil {
			tb.Fatal(err)
		}
	}
	return t
}

// orderTable has one certain column per key shape: rid (INT, NULL every 7th
// row), grp (INT, heavy duplication), mix (INT and FLOAT values alternating
// in one column, NULL every 11th row), tag (TEXT, duplicates and NULLs) and
// flag (BOOL) — plus an uncertain value whose discrete pdfs carry differing
// masses, for ORDER BY PROB.
func orderTable(tb testing.TB, n int, seed int64) *core.Table {
	tb.Helper()
	r := rand.New(rand.NewSource(seed))
	schema := core.MustSchema(
		core.Column{Name: "rid", Type: core.IntType},
		core.Column{Name: "grp", Type: core.IntType},
		core.Column{Name: "mix", Type: core.FloatType},
		core.Column{Name: "tag", Type: core.StringType},
		core.Column{Name: "flag", Type: core.BoolType},
		core.Column{Name: "value", Type: core.FloatType, Uncertain: true},
	)
	t := core.MustTable("ordered", schema, nil, core.NewRegistry())
	for i := 0; i < n; i++ {
		vals := map[string]core.Value{"grp": core.Int(int64(r.Intn(3))), "flag": core.Bool(r.Intn(2) == 0)}
		if i%7 != 3 {
			vals["rid"] = core.Int(int64(r.Intn(n)))
		}
		switch {
		case i%11 == 5:
		case i%2 == 0:
			vals["mix"] = core.Int(int64(r.Intn(20)))
		default:
			vals["mix"] = core.Float(float64(r.Intn(40)) / 2)
		}
		if i%5 != 1 {
			vals["tag"] = core.Str(fmt.Sprintf("t%02d", r.Intn(12)))
		}
		mass := float64(1+r.Intn(8)) / 8
		if err := t.Insert(core.Row{
			Values: vals,
			PDFs:   []core.PDF{{Attrs: []string{"value"}, Dist: dist.NewDiscrete([]float64{float64(i)}, []float64{mass})}},
		}); err != nil {
			tb.Fatal(err)
		}
	}
	return t
}

// TestTopKMatchesSortHead: for every k, key shape and direction, the keyed
// bounded heap equals the keyed Sort followed by Head(k) equals a stable
// sort under the Value comparator followed by Head(k) — NULL keys, duplicate
// keys (ties in arrival order), INT-vs-FLOAT mixed and TEXT columns, and
// ORDER BY PROB with its first-bad-tuple error.
func TestTopKMatchesSortHead(t *testing.T) {
	tbl := orderTable(t, 100, 6)
	probKey := func(col string) func(*core.Tuple) (core.OrderKey, error) {
		return func(tup *core.Tuple) (core.OrderKey, error) {
			p, err := tbl.Prob(tup, col)
			return core.FloatKey(p), err
		}
	}
	probLess := func(desc bool) func(*core.Table, *core.Tuple, *core.Tuple) bool {
		return func(_ *core.Table, a, b *core.Tuple) bool {
			pa, _ := tbl.Prob(a, "value")
			pb, _ := tbl.Prob(b, "value")
			if desc {
				return pa > pb
			}
			return pa < pb
		}
	}
	for _, desc := range []bool{false, true} {
		type orderCase struct {
			name string
			key  func(*core.Tuple) (core.OrderKey, error)
			less func(*core.Table, *core.Tuple, *core.Tuple) bool
		}
		cases := []orderCase{{"PROB(value)", probKey("value"), probLess(desc)}}
		for _, col := range []string{"rid", "grp", "mix", "tag", "flag"} {
			cases = append(cases, orderCase{col, colKey(tbl, col), colLess(tbl, col, desc)})
		}
		for _, c := range cases {
			want := tbl.Sorted(c.less)
			sorted := mustDrain(t, NewSort(NewScan(tbl), c.key, desc))
			if want.Render() != sorted.Render() {
				t.Fatalf("%s desc=%v: keyed Sort differs from the comparator sort:\nwant:\n%s\ngot:\n%s",
					c.name, desc, want.Render(), sorted.Render())
			}
			for _, k := range []int{0, 1, 7, 50, 100, 150} {
				sc := NewScan(tbl)
				sc.SetBatch(9)
				got := mustDrain(t, NewTopK(sc, k, c.key, desc))
				if w := want.Head(k).Render(); w != got.Render() {
					t.Fatalf("%s desc=%v k=%d: top-k differs from sort+head:\nsort:\n%s\nheap:\n%s",
						c.name, desc, k, w, got.Render())
				}
			}
		}
		for _, root := range []Operator{
			NewTopK(NewScan(tbl), 5, probKey("nope"), desc),
			NewSort(NewScan(tbl), probKey("nope"), desc),
		} {
			if _, err := Drain(context.Background(), root); err == nil {
				t.Fatalf("desc=%v: ORDER BY PROB of an unknown column must fail on the first tuple", desc)
			}
			if n := OpenOperators(); n != 0 {
				t.Fatalf("OpenOperators() = %d after a failed key", n)
			}
		}
	}
}

// TestTopKLimitZeroStopsScan: ORDER BY ... LIMIT 0 emits nothing without
// pulling its child — no scan, and no key (a Prob evaluation per tuple for
// ORDER BY PROB) extracted to be thrown away.
func TestTopKLimitZeroStopsScan(t *testing.T) {
	tbl := testTable(t, 5000, 7)
	sc := NewScan(tbl)
	out := mustDrain(t, NewTopK(sc, 0, func(*core.Tuple) (core.OrderKey, error) {
		t.Fatal("key extracted under LIMIT 0")
		return core.OrderKey{}, nil
	}, false))
	if out.Len() != 0 || sc.Pos() != 0 {
		t.Fatalf("LIMIT 0: %d rows out, scan advanced to %d of %d", out.Len(), sc.Pos(), tbl.Len())
	}
}

// TestFilterBatchReuse: Filter and ProbFilter reuse their output buffers, so
// a batch is valid only until the next Next. A consumer that copies out of
// each batch before pulling again sees exactly Table.Select's tuples.
func TestFilterBatchReuse(t *testing.T) {
	tbl := testTable(t, 200, 12)
	atom := core.Cmp(core.Col("grp"), region.NE, core.LitI(1))
	sel, err := tbl.PlanSelect(atom)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScan(tbl)
	sc.SetBatch(3)
	root := NewProbFilter(NewFilter(sc, sel), sel.Out().PlanRangeThreshold("value", 20, 80, region.GE, 0.5))
	var got []*core.Tuple
	err = Run(context.Background(), root, func(_ *core.Table, b []*core.Tuple) error {
		got = append(got, b...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	filtered, err := tbl.Select(atom)
	if err != nil {
		t.Fatal(err)
	}
	want, err := filtered.SelectRangeThreshold("value", 20, 80, region.GE, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != want.Len() || want.Len() == 0 {
		t.Fatalf("streamed %d tuples, Table.Select kept %d", len(got), want.Len())
	}
	for i, tup := range want.Tuples() {
		if got[i] != tup {
			t.Fatalf("tuple %d: the copied-out stream is not Table.Select's tuple", i)
		}
	}
}

// TestLimitStopsScan: LIMIT must terminate the pipeline early — the scan
// leaf never reaches the end of a table much larger than the limit.
func TestLimitStopsScan(t *testing.T) {
	tbl := testTable(t, 5000, 7)
	sc := NewScan(tbl)
	root := NewLimit(sc, 10)
	out := mustDrain(t, root)
	if out.Len() != 10 {
		t.Fatalf("limit output = %d rows, want 10", out.Len())
	}
	if sc.Pos() > BatchSize {
		t.Fatalf("scan advanced to %d of %d rows; LIMIT 10 should stop after one batch (%d)",
			sc.Pos(), tbl.Len(), BatchSize)
	}
}

// TestRunEmitsHeaderOnEmptyResult: sinks always learn the result shape,
// even when no tuple survives.
func TestRunEmitsHeaderOnEmptyResult(t *testing.T) {
	tbl := testTable(t, 20, 8)
	sel, err := tbl.PlanSelect(core.Cmp(core.Col("grp"), region.GT, core.LitI(99)))
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	err = Run(context.Background(), NewFilter(NewScan(tbl), sel), func(hdr *core.Table, b []*core.Tuple) error {
		calls++
		if hdr == nil {
			t.Fatal("nil header")
		}
		if b != nil {
			t.Fatalf("expected empty result, got %d tuples", len(b))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("emit called %d times, want exactly 1", calls)
	}
}

// TestCancellationClosesTree: cancelling the context mid-stream aborts the
// pull loop and leaves no operator open.
func TestCancellationClosesTree(t *testing.T) {
	tbl := testTable(t, 2000, 9)
	ctx, cancel := context.WithCancel(context.Background())
	batches := 0
	err := Run(ctx, NewScan(tbl), func(hdr *core.Table, b []*core.Tuple) error {
		batches++
		if batches == 2 {
			cancel()
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected a cancellation error")
	}
	if batches != 2 {
		t.Fatalf("emit called %d times after cancel at 2", batches)
	}
	if n := OpenOperators(); n != 0 {
		t.Fatalf("OpenOperators() = %d after cancelled run", n)
	}
	cancel()
}

// TestProjectMatchesLegacy: the streaming Project, drained, matches the
// materializing path, phantom retention included — and Run hands out full
// batches of it however few rows each filtered input batch kept.
func TestProjectMatchesLegacy(t *testing.T) {
	tbl := testTable(t, 1500, 10)
	atoms := []core.Atom{
		core.Cmp(core.Col("value"), region.LE, core.LitF(55)),
		core.Cmp(core.Col("grp"), region.EQ, core.LitI(1)),
	}
	sel, err := tbl.PlanSelect(atoms...)
	if err != nil {
		t.Fatal(err)
	}
	legacySel, err := tbl.Select(atoms...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := legacySel.Project("rid", "grp")
	if err != nil {
		t.Fatal(err)
	}
	k, err := sel.Out().PlanProject("rid", "grp")
	if err != nil {
		t.Fatal(err)
	}
	got := mustDrain(t, NewProject(NewFilter(NewScan(tbl), sel), k))
	assertRenderEqual(t, want, got)

	var sizes []int
	if err := Run(context.Background(), NewProject(NewFilter(NewScan(tbl), sel), k), func(_ *core.Table, b []*core.Tuple) error {
		sizes = append(sizes, len(b))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, n := range sizes {
		if n != BatchSize && i != len(sizes)-1 {
			t.Fatalf("batch %d of %d holds %d rows, want %d: %v", i, len(sizes), n, BatchSize, sizes)
		}
	}
	if nb := (want.Len() + BatchSize - 1) / BatchSize; len(sizes) != nb || nb < 2 {
		t.Fatalf("%d batches for %d rows, want %d", len(sizes), want.Len(), nb)
	}
}

// repeatBatch is a source that hands out the same batch on every Next.
type repeatBatch struct {
	hdr   *core.Table
	batch []*core.Tuple
}

func (r *repeatBatch) Header() *core.Table          { return r.hdr }
func (r *repeatBatch) Open(context.Context) error   { return nil }
func (r *repeatBatch) Next() ([]*core.Tuple, error) { return r.batch, nil }
func (r *repeatBatch) Close() error                 { return nil }

// TestProjectPassesTuplesThrough: under history tracking a projection is a
// header over its input's tuples — over a full batch it returns the input
// tuples themselves and allocates nothing, and its header reads the
// reordered columns through the tuples' certain values.
func TestProjectPassesTuplesThrough(t *testing.T) {
	tbl := testTable(t, BatchSize, 21)
	k, err := tbl.PlanProject("value", "grp", "rid")
	if err != nil {
		t.Fatal(err)
	}
	p := NewProject(&repeatBatch{hdr: tbl, batch: tbl.Tuples()}, k)
	if err := p.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	out, err := p.Next()
	if err != nil || len(out) != BatchSize {
		t.Fatalf("first batch: %d rows, %v", len(out), err)
	}
	for i, tup := range out {
		if tup != tbl.Tuples()[i] {
			t.Fatalf("row %d is a new tuple, want the input's", i)
		}
		for _, c := range []string{"grp", "rid"} {
			got, _ := p.Header().Value(tup, c)
			want, _ := tbl.Value(tup, c)
			if got.Render() != want.Render() {
				t.Fatalf("row %d column %s: %s through the projection, %s in the table", i, c, got.Render(), want.Render())
			}
		}
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := p.Next(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("a %d-row Project batch allocates %v times, want 0", BatchSize, n)
	}
}

// TestProbFilterBatchAllocs: a vectorized range threshold over a full
// batch of Gaussian rows reads one interval probability per row and builds
// nothing, so it runs inline — no morsel fan-out, no allocation — even with
// processors to spare.
func TestProbFilterBatchAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	tbl := testTable(t, BatchSize, 21)
	f := NewProbFilter(&repeatBatch{hdr: tbl, batch: tbl.Tuples()}, tbl.PlanRangeThreshold("value", 20, 80, region.GE, 0.5))
	if err := f.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out, err := f.Next() // encodes the batch's slot and sizes the filter's buffers
	if err != nil || len(out) == 0 || len(out) == BatchSize {
		t.Fatalf("first batch kept %d rows (%v); want some but not all", len(out), err)
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := f.Next(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("a %d-row ProbFilter batch allocates %v times, want 0", BatchSize, n)
	}
}
