package core

import (
	"math"
	"math/rand"
	"testing"

	"probdb/internal/dist"
	"probdb/internal/region"
)

// randomKeyedTable is randomMixedTable with a caller-controlled name and
// registry, so two tables can be crossed/joined (cross ops require a shared
// registry).
func randomKeyedTable(r *rand.Rand, name string, reg *Registry) *Table {
	schema := MustSchema(
		Column{Name: "k", Type: IntType},
		Column{Name: "x", Type: FloatType, Uncertain: true},
		Column{Name: "a", Type: IntType, Uncertain: true},
		Column{Name: "b", Type: IntType, Uncertain: true},
	)
	tbl := MustTable(name, schema, [][]string{{"a", "b"}}, reg)
	n := 1 + r.Intn(4)
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

// TestParallelSelectDifferential: Select at parallelism 8 is byte-identical
// to parallelism 1 across the property-test corpus.
func TestParallelSelectDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(201)) // the properties_test.go corpus seed
	for trial := 0; trial < 60; trial++ {
		tbl := randomMixedTable(r)
		atoms := []Atom{randomAtom(r)}
		if r.Intn(2) == 0 {
			atoms = append(atoms, randomAtom(r))
		}
		seq, err := tbl.WithParallelism(1).Select(atoms...)
		if err != nil {
			t.Fatal(err)
		}
		par, err := tbl.WithParallelism(8).Select(atoms...)
		if err != nil {
			t.Fatal(err)
		}
		assertTablesIdentical(t, seq, par)
	}
}

// TestParallelJoinDifferential: Join and EquiJoin (hash pairing, merge,
// cross-attribute floors) at parallelism 8 equal parallelism 1.
func TestParallelJoinDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(202))
	for trial := 0; trial < 25; trial++ {
		reg := NewRegistry()
		la, err := randomKeyedTable(r, "L", reg).Prefixed("l.")
		if err != nil {
			t.Fatal(err)
		}
		rb, err := randomKeyedTable(r, "R", reg).Prefixed("r.")
		if err != nil {
			t.Fatal(err)
		}
		atom := Cmp(Col("l.x"), region.LT, Col("r.x"))

		seq, err := la.WithParallelism(1).EquiJoin(rb, "l.k", "r.k", atom)
		if err != nil {
			t.Fatal(err)
		}
		par, err := la.WithParallelism(8).EquiJoin(rb, "l.k", "r.k", atom)
		if err != nil {
			t.Fatal(err)
		}
		assertTablesIdentical(t, seq, par)

		seqJ, err := la.WithParallelism(1).Join(rb, Cmp(Col("l.k"), region.EQ, Col("r.k")), atom)
		if err != nil {
			t.Fatal(err)
		}
		parJ, err := la.WithParallelism(8).Join(rb, Cmp(Col("l.k"), region.EQ, Col("r.k")), atom)
		if err != nil {
			t.Fatal(err)
		}
		assertTablesIdentical(t, seqJ, parJ)
	}
}

// TestParallelCrossProductDifferential: pair order of the parallel
// materialization matches the sequential nested loop.
func TestParallelCrossProductDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(203))
	for trial := 0; trial < 25; trial++ {
		reg := NewRegistry()
		la, err := randomKeyedTable(r, "L", reg).Prefixed("l.")
		if err != nil {
			t.Fatal(err)
		}
		rb, err := randomKeyedTable(r, "R", reg).Prefixed("r.")
		if err != nil {
			t.Fatal(err)
		}
		seq, err := la.WithParallelism(1).CrossProduct(rb)
		if err != nil {
			t.Fatal(err)
		}
		par, err := la.WithParallelism(8).CrossProduct(rb)
		if err != nil {
			t.Fatal(err)
		}
		assertTablesIdentical(t, seq, par)
	}
}

// TestParallelThresholdDifferential: the probability-value selections
// (§III-E) are identical across parallelism.
func TestParallelThresholdDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(204))
	for trial := 0; trial < 40; trial++ {
		tbl := randomMixedTable(r)
		lo := r.Float64() * 50
		hi := lo + r.Float64()*50
		p := r.Float64()

		seq, err := tbl.WithParallelism(1).SelectRangeThreshold("x", lo, hi, region.GE, p)
		if err != nil {
			t.Fatal(err)
		}
		par, err := tbl.WithParallelism(8).SelectRangeThreshold("x", lo, hi, region.GE, p)
		if err != nil {
			t.Fatal(err)
		}
		assertTablesIdentical(t, seq, par)

		seqP, err := tbl.WithParallelism(1).SelectWhereProb([]string{"a"}, region.LE, p)
		if err != nil {
			t.Fatal(err)
		}
		parP, err := tbl.WithParallelism(8).SelectWhereProb([]string{"a"}, region.LE, p)
		if err != nil {
			t.Fatal(err)
		}
		assertTablesIdentical(t, seqP, parP)
	}
}
