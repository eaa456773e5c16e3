package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"probdb/internal/dist"
	"probdb/internal/region"
)

// randomKeyedTable is randomMixedTable with a caller-controlled name,
// registry and row count, so two tables can be crossed/joined (cross ops
// require a shared registry) and a table can be large enough for the
// kernels' morsel loops to fan out.
func randomKeyedTable(r *rand.Rand, name string, reg *Registry, n int) *Table {
	schema := MustSchema(
		Column{Name: "k", Type: IntType},
		Column{Name: "x", Type: FloatType, Uncertain: true},
		Column{Name: "a", Type: IntType, Uncertain: true},
		Column{Name: "b", Type: IntType, Uncertain: true},
	)
	tbl := MustTable(name, schema, [][]string{{"a", "b"}}, reg)
	for i := 0; i < n; i++ {
		np := 1 + r.Intn(3)
		pts := make([]dist.Point, np)
		for j := range pts {
			pts[j] = dist.Point{
				X: []float64{float64(r.Intn(5)), float64(r.Intn(5))},
				P: r.Float64() / float64(np),
			}
		}
		var x dist.Dist
		if r.Intn(2) == 0 {
			x = dist.NewGaussian(r.Float64()*100, 0.5+r.Float64()*4)
		} else {
			x = dist.NewUniform(0, 1+r.Float64()*99)
		}
		if err := tbl.Insert(Row{
			Values: map[string]Value{"k": Int(int64(i))},
			PDFs: []PDF{
				{Attrs: []string{"x"}, Dist: x},
				{Attrs: []string{"a", "b"}, Dist: dist.NewDiscreteJoint(2, pts)},
			},
		}); err != nil {
			panic(err)
		}
	}
	return tbl
}

// assertTablesIdentical demands byte-identical results: same cardinality,
// same rendered output (tuple order and pdf text included), and bitwise
// equal existence probabilities.
func assertTablesIdentical(t *testing.T, seq, par *Table) {
	t.Helper()
	if seq.Len() != par.Len() {
		t.Fatalf("cardinality differs: sequential %d, parallel %d", seq.Len(), par.Len())
	}
	if sr, pr := seq.Render(), par.Render(); sr != pr {
		t.Fatalf("rendered output differs:\nsequential:\n%s\nparallel:\n%s", sr, pr)
	}
	for i := range seq.Tuples() {
		sp := seq.ExistenceProb(seq.Tuples()[i])
		pp := par.ExistenceProb(par.Tuples()[i])
		if math.Float64bits(sp) != math.Float64bits(pp) {
			t.Fatalf("tuple %d existence differs bitwise: %v vs %v", i, sp, pp)
		}
	}
}

// procsIdentical runs f at GOMAXPROCS 1 and 8 — the kernels' morsel loops
// run inline at 1 and fan out at 8 — and demands byte-identical results.
func procsIdentical(t *testing.T, f func() (*Table, error)) {
	t.Helper()
	at := func(procs int) *Table {
		t.Helper()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		out, err := f()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	seq := at(1)
	assertTablesIdentical(t, seq, at(8))
}

// TestParallelSelectDifferential: Select at GOMAXPROCS 8 is byte-identical
// to GOMAXPROCS 1, over tables of up to 300 rows (a few 256-row batches,
// well past the morsel loops' sequential threshold).
func TestParallelSelectDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(201))
	for trial := 0; trial < 60; trial++ {
		tbl := randomKeyedTable(r, "R", nil, 1+r.Intn(300))
		atoms := []Atom{randomAtom(r)}
		if r.Intn(2) == 0 {
			atoms = append(atoms, randomAtom(r))
		}
		procsIdentical(t, func() (*Table, error) { return tbl.Select(atoms...) })
	}
}

// TestParallelJoinDifferential: Join and EquiJoin (hash pairing, merge,
// cross-attribute floors, which take the per-tuple Eval morsel loop) at
// GOMAXPROCS 8 equal GOMAXPROCS 1.
func TestParallelJoinDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(202))
	for trial := 0; trial < 25; trial++ {
		reg := NewRegistry()
		la, err := randomKeyedTable(r, "L", reg, 1+r.Intn(60)).Prefixed("l.")
		if err != nil {
			t.Fatal(err)
		}
		rb, err := randomKeyedTable(r, "R", reg, 1+r.Intn(60)).Prefixed("r.")
		if err != nil {
			t.Fatal(err)
		}
		atom := Cmp(Col("l.x"), region.LT, Col("r.x"))
		procsIdentical(t, func() (*Table, error) { return la.EquiJoin(rb, "l.k", "r.k", atom) })
		procsIdentical(t, func() (*Table, error) { return la.Join(rb, Cmp(Col("l.k"), region.EQ, Col("r.k")), atom) })
	}
}

// TestParallelThresholdDifferential: the probability-value selections
// (§III-E) are identical at GOMAXPROCS 1 and 8.
func TestParallelThresholdDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(204))
	for trial := 0; trial < 40; trial++ {
		tbl := randomKeyedTable(r, "R", nil, 1+r.Intn(300))
		lo := r.Float64() * 50
		hi := lo + r.Float64()*50
		p := r.Float64()
		procsIdentical(t, func() (*Table, error) { return tbl.SelectRangeThreshold("x", lo, hi, region.GE, p) })
		procsIdentical(t, func() (*Table, error) { return tbl.SelectWhereProb([]string{"a"}, region.LE, p) })
	}
}
