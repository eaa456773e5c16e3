package core

import (
	"math"
	"reflect"
	"testing"

	"probdb/internal/dist"
	"probdb/internal/region"
)

// mixedColTable builds a base table whose uncertain column x cycles through
// every kernel family — full and partial discrete samplings included — plus
// fallback distributions (triangular, floored). The
// first half interleaves families row by row (maximal run fragmentation);
// the second half holds runs of 23 equal-family rows (the vectorized sweet
// spot) — so every batch crosses vectorized/fallback boundaries both ways.
func mixedColTable(t testing.TB, n int) *Table {
	t.Helper()
	schema := MustSchema(
		Column{Name: "id", Type: IntType},
		Column{Name: "x", Type: FloatType, Uncertain: true},
	)
	tbl := MustTable("T", schema, [][]string{{"x"}}, NewRegistry())
	for i := 0; i < n; i++ {
		fam := i % 8
		if i >= n/2 {
			fam = (i / 23) % 8
		}
		var d dist.Dist
		switch fam {
		case 0:
			d = dist.NewGaussian(float64(i%40), 1+float64(i%5))
		case 1:
			d = dist.NewUniform(float64(i%10), float64(i%10)+5)
		case 2:
			d = dist.NewExponential(0.1 + 0.3*float64(i%7))
		case 3:
			d = dist.NewPoisson(float64(3 + i%4))
		case 4:
			d = dist.NewGeometric(0.2 + 0.1*float64(i%5))
		case 5:
			d = dist.NewTriangular(0, float64(2+i%3), 10) // fallback
		case 6:
			// Floored pdf: fallback family with partial existence mass.
			d = dist.NewGaussian(float64(i%30), 4).Floor(0, region.Compare(region.LT, float64(10+i%20)))
		default:
			// Discrete sampling over -0 and negative values, partial in
			// every other row.
			c := float64(i%12) - 2
			d = dist.NewDiscrete([]float64{math.Copysign(0, -1), c, c + 2.5}, []float64{0.25, 0.5, 0.25 - 0.125*float64(i%2)})
		}
		if err := tbl.Insert(Row{
			Values: map[string]Value{"id": Int(int64(i))},
			PDFs:   []PDF{{Attrs: []string{"x"}, Dist: d}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// diffRun evaluates f twice — vectorized and scalar reference — and requires
// identical outcomes: same error (by message), and for tables the exact same
// kept length.
func diffRun(t *testing.T, f func() (*Table, error)) (vec, scalar *Table) {
	t.Helper()
	SetVectorizedKernels(true)
	vec, vecErr := f()
	SetVectorizedKernels(false)
	scalar, scErr := f()
	SetVectorizedKernels(true)
	if (vecErr == nil) != (scErr == nil) || (vecErr != nil && vecErr.Error() != scErr.Error()) {
		t.Fatalf("vec err %v, scalar err %v", vecErr, scErr)
	}
	return vec, scalar
}

// sameKeptTuples requires both tables to hold the identical tuple pointers
// in the identical order — the strictest possible equality for filters that
// pass tuples through.
func sameKeptTuples(t *testing.T, label string, vec, scalar *Table) {
	t.Helper()
	if vec == nil || scalar == nil {
		return
	}
	if len(vec.tuples) != len(scalar.tuples) {
		t.Fatalf("%s: vec kept %d, scalar kept %d", label, len(vec.tuples), len(scalar.tuples))
	}
	for i := range vec.tuples {
		if vec.tuples[i] != scalar.tuples[i] {
			t.Fatalf("%s: tuple %d differs (vec %p, scalar %p)", label, i, vec.tuples[i], scalar.tuples[i])
		}
	}
}

// sameBuiltTuples compares tuples rebuilt by Selection: certain values by
// deep equality, pdf nodes by pointer (both paths share the input nodes).
func sameBuiltTuples(t *testing.T, label string, vec, scalar *Table) {
	t.Helper()
	if vec == nil || scalar == nil {
		return
	}
	if len(vec.tuples) != len(scalar.tuples) {
		t.Fatalf("%s: vec built %d, scalar built %d", label, len(vec.tuples), len(scalar.tuples))
	}
	for i := range vec.tuples {
		v, s := vec.tuples[i], scalar.tuples[i]
		if !reflect.DeepEqual(v.certain, s.certain) {
			t.Fatalf("%s: tuple %d certain %v != %v", label, i, v.certain, s.certain)
		}
		if len(v.nodes) != len(s.nodes) {
			t.Fatalf("%s: tuple %d node count %d != %d", label, i, len(v.nodes), len(s.nodes))
		}
		for j := range v.nodes {
			if v.nodes[j] != s.nodes[j] {
				t.Fatalf("%s: tuple %d node %d not shared", label, i, j)
			}
		}
	}
}

// TestPassThroughSharesTuples: a certain-only selection changes no tuple, so
// it returns the input tuples themselves, in table order, on the vectorized
// and the scalar path, over a cached base table and over an uncached
// restriction of it; a selection with a floor still builds fresh tuples; and
// nothing any of them did shows in the base table.
func TestPassThroughSharesTuples(t *testing.T) {
	tbl := mixedColTable(t, 600)
	before := tbl.Render()
	base := map[*Tuple]bool{}
	for _, tup := range tbl.tuples {
		base[tup] = true
	}
	vec, scalar := diffRun(t, func() (*Table, error) {
		return tbl.Select(Cmp(Col("id"), region.GE, LitI(57)), Cmp(LitI(489), region.GT, Col("id")))
	})
	sameKeptTuples(t, "σ(id)", vec, scalar)
	sameKeptTuples(t, "σ(id) vs base", vec, &Table{tuples: tbl.tuples[57:489]})

	sub := tbl.View("sub", tbl.tuples[100:300])
	vec, scalar = diffRun(t, func() (*Table, error) {
		return sub.Select(Cmp(Col("id"), region.LT, LitI(200)))
	})
	sameKeptTuples(t, "σ(sub)", vec, scalar)
	sameKeptTuples(t, "σ(sub) vs base", vec, &Table{tuples: tbl.tuples[100:200]})

	vec, scalar = diffRun(t, func() (*Table, error) {
		return tbl.Select(Cmp(Col("id"), region.LT, LitI(300)), Cmp(Col("x"), region.LT, LitF(6)))
	})
	if vec.Render() != scalar.Render() {
		t.Fatal("floored selection differs between the vectorized and scalar paths")
	}
	for _, out := range []*Table{vec, scalar} {
		if len(out.tuples) == 0 {
			t.Fatal("the floored selection kept nothing")
		}
		for i, tup := range out.tuples {
			if base[tup] {
				t.Fatalf("floored tuple %d is a base-table tuple", i)
			}
		}
	}
	if after := tbl.Render(); after != before {
		t.Fatalf("base table changed:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}

func TestSelectDifferential(t *testing.T) {
	tbl := mixedColTable(t, 600)
	vec, scalar := diffRun(t, func() (*Table, error) {
		return tbl.Select(Cmp(Col("id"), region.GE, LitI(57)), Cmp(Col("id"), region.LT, LitI(489)))
	})
	sameBuiltTuples(t, "σ(id)", vec, scalar)
	if len(vec.tuples) != 489-57 {
		t.Fatalf("kept %d, want %d", len(vec.tuples), 489-57)
	}
}

func TestProbSelectDifferential(t *testing.T) {
	tbl := mixedColTable(t, 600)
	cases := []struct {
		op region.Op
		p  float64
	}{
		{region.GT, 0.9},
		{region.GE, 0.5},
		{region.LT, 1},
		{region.LE, 0.25},
	}
	for _, c := range cases {
		vec, scalar := diffRun(t, func() (*Table, error) {
			return tbl.SelectWhereProb([]string{"x"}, c.op, c.p)
		})
		sameKeptTuples(t, "σPr", vec, scalar)
		if c.op == region.LT && c.p == 1 && len(vec.tuples) == 0 {
			t.Fatal("floored rows should have mass < 1")
		}
	}
}

func TestRangeThresholdDifferential(t *testing.T) {
	tbl := mixedColTable(t, 600)
	inf := math.Inf(1)
	cases := []struct {
		lo, hi float64
		op     region.Op
		p      float64
	}{
		{0, 10, region.GE, 0.5},
		{3, 4, region.GT, 0.05},
		{-inf, 5, region.LT, 0.9},
		{18, inf, region.GE, 0.1},
		{7, 2, region.LE, 0}, // reversed interval: Pr = 0 everywhere
	}
	for _, c := range cases {
		vec, scalar := diffRun(t, func() (*Table, error) {
			return tbl.SelectRangeThreshold("x", c.lo, c.hi, c.op, c.p)
		})
		sameKeptTuples(t, "σPr∈", vec, scalar)
	}
}

// TestResolveErrorDifferential: unresolvable thresholds (unknown column,
// certain column) must fail identically on both paths — the vectorized
// kernel routes them through the scalar reference so the per-tuple error is
// reproduced verbatim.
func TestResolveErrorDifferential(t *testing.T) {
	tbl := mixedColTable(t, 8)
	diffRun(t, func() (*Table, error) {
		return tbl.SelectWhereProb([]string{"nope"}, region.GT, 0.5)
	})
	diffRun(t, func() (*Table, error) {
		return tbl.SelectRangeThreshold("id", 0, 1, region.GT, 0.5)
	})
	diffRun(t, func() (*Table, error) {
		return tbl.SelectRangeThreshold("zz", 0, 1, region.GT, 0.5)
	})
}

// TestDerivedTableDifferential runs the threshold kernels over a derived
// table (floored post-selection pdfs, no batch slots): the scratch-encoding
// path must match the scalar reference exactly.
func TestDerivedTableDifferential(t *testing.T) {
	tbl := mixedColTable(t, 400)
	der, err := tbl.Select(Cmp(Col("x"), region.LT, LitF(8)))
	if err != nil {
		t.Fatal(err)
	}
	if der.enc != nil {
		t.Fatalf("derived table has %d batch slots", len(der.enc))
	}
	vec, scalar := diffRun(t, func() (*Table, error) {
		return der.SelectWhereProb([]string{"x"}, region.GT, 0.3)
	})
	sameKeptTuples(t, "derived σPr", vec, scalar)
	vec, scalar = diffRun(t, func() (*Table, error) {
		return der.SelectRangeThreshold("x", 1, 6, region.GE, 0.2)
	})
	sameKeptTuples(t, "derived σPr∈", vec, scalar)
}

// TestJointMarginalDifferential: a multi-attribute dependency set evaluates
// range thresholds over one marginal dimension — the fallback kernel must
// reduce exactly like the scalar DistOf path.
func TestJointMarginalDifferential(t *testing.T) {
	schema := MustSchema(
		Column{Name: "id", Type: IntType},
		Column{Name: "x", Type: FloatType, Uncertain: true},
		Column{Name: "y", Type: FloatType, Uncertain: true},
	)
	tbl := MustTable("J", schema, [][]string{{"x", "y"}}, NewRegistry())
	for i := 0; i < 60; i++ {
		mg, err := dist.NewMultiGaussian(
			[]float64{float64(i % 9), float64(5 + i%4)},
			[][]float64{{2, 0.5}, {0.5, 1}})
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.Insert(Row{
			Values: map[string]Value{"id": Int(int64(i))},
			PDFs:   []PDF{{Attrs: []string{"x", "y"}, Dist: mg}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, attr := range []string{"x", "y"} {
		vec, scalar := diffRun(t, func() (*Table, error) {
			return tbl.SelectRangeThreshold(attr, 2, 7, region.GE, 0.4)
		})
		sameKeptTuples(t, "joint "+attr, vec, scalar)
	}
}

// TestDMLInvalidationDifferential: a Delete between queries gives the
// batches it moved fresh slots, so a repeat query re-encodes the new tuple
// layout instead of serving stale blocks.
func TestDMLInvalidationDifferential(t *testing.T) {
	tbl := mixedColTable(t, 300)
	q := func() (*Table, error) { return tbl.SelectRangeThreshold("x", 2, 9, region.GE, 0.3) }

	vec, scalar := diffRun(t, q)
	sameKeptTuples(t, "pre-DML", vec, scalar)
	if tbl.EncodedBytes() == 0 {
		t.Fatal("vectorized run did not encode the table's batches")
	}

	// Deleting from the middle shifts every later tuple into a different
	// batch slot — a stale encoding would evaluate the wrong pdfs.
	if removed, err := tbl.Delete(rowsWhere(tbl, func(id int64) bool { return id%5 == 2 })); err != nil || removed == 0 {
		t.Fatalf("delete removed %d (%v)", removed, err)
	}
	if n := tbl.EncodedBytes(); n != 0 {
		t.Fatalf("delete from row 2 left %d bytes of stale encodings", n)
	}
	if err := tbl.Insert(Row{
		Values: map[string]Value{"id": Int(1000)},
		PDFs:   []PDF{{Attrs: []string{"x"}, Dist: dist.NewGaussian(5, 1)}},
	}); err != nil {
		t.Fatal(err)
	}

	vec, scalar = diffRun(t, q)
	sameKeptTuples(t, "post-DML", vec, scalar)
}

// TestFallbackBoundaryDifferential sweeps batch sizes around the fallback
// boundaries: tables sized to put family transitions at the first, last, and
// straddling positions of the 256-tuple encoding batches.
func TestFallbackBoundaryDifferential(t *testing.T) {
	for _, n := range []int{1, 7, 255, 256, 257, 511, 513} {
		tbl := mixedColTable(t, n)
		vec, scalar := diffRun(t, func() (*Table, error) {
			return tbl.SelectRangeThreshold("x", 1, 8, region.GT, 0.2)
		})
		sameKeptTuples(t, "boundary", vec, scalar)
		vec, scalar = diffRun(t, func() (*Table, error) {
			return tbl.SelectWhereProb([]string{"x"}, region.LE, 0.95)
		})
		sameKeptTuples(t, "boundary mass", vec, scalar)
	}
}
