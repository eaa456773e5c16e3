package core_test

import (
	"context"
	"testing"

	"probdb/internal/core"
	"probdb/internal/dist"
	"probdb/internal/pipe"
	"probdb/internal/region"
)

// pipeColTable is the exported-API twin of mixedColTable for the pipelined
// differential: families interleave row by row, fallback included.
func pipeColTable(t testing.TB, n int) *core.Table {
	t.Helper()
	schema := core.MustSchema(
		core.Column{Name: "id", Type: core.IntType},
		core.Column{Name: "x", Type: core.FloatType, Uncertain: true},
	)
	tbl := core.MustTable("P", schema, [][]string{{"x"}}, core.NewRegistry())
	for i := 0; i < n; i++ {
		var d dist.Dist
		switch i % 5 {
		case 0:
			d = dist.NewGaussian(float64(i%20), 2)
		case 1:
			d = dist.NewUniform(0, float64(4+i%6))
		case 2:
			d = dist.NewPoisson(float64(2 + i%5))
		case 3:
			d = dist.NewTriangular(0, 3, 9) // fallback
		default:
			d = dist.NewGaussian(float64(i%15), 3).Floor(0, region.Compare(region.GT, 4))
		}
		if err := tbl.Insert(core.Row{
			Values: map[string]core.Value{"id": core.Int(int64(i))},
			PDFs:   []core.PDF{{Attrs: []string{"x"}, Dist: d}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// TestPipelinedDifferential drains a scan→filter→prob-filter→project tree
// with a batch size misaligned to the 256-tuple encoding granularity,
// vectorized vs scalar, and requires identical results, each tuple
// recording the product of its nodes' masses as its existence probability.
func TestPipelinedDifferential(t *testing.T) {
	tbl := pipeColTable(t, 700)
	run := func(vec bool, batch int) *core.Table {
		t.Helper()
		core.SetVectorizedKernels(vec)
		defer core.SetVectorizedKernels(true)
		sel, err := tbl.PlanSelect(core.Cmp(core.Col("id"), region.GE, core.LitI(10)))
		if err != nil {
			t.Fatal(err)
		}
		sc := pipe.NewScan(tbl)
		sc.SetBatch(batch)
		var root pipe.Operator = pipe.NewFilter(sc, sel)
		root = pipe.NewProbFilter(root, tbl.PlanRangeThreshold("x", 1, 7, region.GT, 0.25))
		proj, err := root.Header().PlanProject("x", "id")
		if err != nil {
			t.Fatal(err)
		}
		out, err := pipe.Drain(context.Background(), pipe.NewProject(root, proj))
		if err != nil {
			t.Fatal(err)
		}
		if err := core.CheckExistence(out.Tuples()); err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, batch := range []int{3, 97, 256, 1000} {
		vec, scalar := run(true, batch), run(false, batch)
		if vec.Len() != scalar.Len() {
			t.Fatalf("batch %d: vec kept %d, scalar kept %d", batch, vec.Len(), scalar.Len())
		}
		if vr, sr := vec.Render(), scalar.Render(); vr != sr {
			t.Fatalf("batch %d: rendered results differ:\nvec:\n%s\nscalar:\n%s", batch, vr, sr)
		}
	}
}

// TestPipelinedDMLMidScanDifferential interleaves DML with an open scan: the
// batch kernel must keep matching the per-tuple oracle on every batch even
// as inserts and deletes bump the table version (invalidating cached
// encodings) and shift tuples out from under the cursor.
func TestPipelinedDMLMidScanDifferential(t *testing.T) {
	core.SetVectorizedKernels(true)
	tbl := pipeColTable(t, 60)
	sel := tbl.PlanRangeThreshold("x", 1, 8, region.GT, 0.2)
	sc := pipe.NewScan(tbl)
	sc.SetBatch(7)
	if err := sc.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	pulled := 0
	for {
		batch, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if batch == nil {
			break
		}
		keep := make([]bool, len(batch))
		if err := sel.KeepBatch(batch, keep, make([]float64, len(batch))); err != nil {
			t.Fatal(err)
		}
		for i, tup := range batch {
			want, err := sel.Keep(tup)
			if err != nil {
				t.Fatal(err)
			}
			if keep[i] != want {
				t.Fatalf("batch %d tuple %d: vec %v, scalar oracle %v", pulled, i, keep[i], want)
			}
		}
		pulled++
		switch pulled {
		case 2:
			// Append mid-scan: the last batch grows, so its encodings no
			// longer cover it and are rebuilt.
			if err := tbl.Insert(core.Row{
				Values: map[string]core.Value{"id": core.Int(999)},
				PDFs:   []core.PDF{{Attrs: []string{"x"}, Dist: dist.NewGaussian(4, 1)}},
			}); err != nil {
				t.Fatal(err)
			}
		case 4:
			// Delete mid-scan: later tuples shift, so the cursor's batch
			// offsets no longer line up and the kernel must re-verify.
			var gone []*core.Tuple
			for _, tup := range tbl.Tuples() {
				if v, _ := tbl.Value(tup, "id"); v.I%7 == 3 {
					gone = append(gone, tup)
				}
			}
			if _, err := tbl.Delete(gone); err != nil {
				t.Fatal(err)
			}
		}
	}
	if pulled < 6 {
		t.Fatalf("scan ended after %d batches", pulled)
	}
}
