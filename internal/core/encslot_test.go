package core

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"probdb/internal/dist"
	"probdb/internal/region"
)

// appendRows inserts n rows with ids from id, their x pdfs drawn by shape:
// different shapes give rows no batch encoding of the others can serve.
func appendRows(tbl *Table, id, n int, shape func(i int) dist.Dist) error {
	for i := id; i < id+n; i++ {
		if err := tbl.Insert(Row{
			Values: map[string]Value{"id": Int(int64(i))},
			PDFs:   []PDF{{Attrs: []string{"x"}, Dist: shape(i)}},
		}); err != nil {
			return err
		}
	}
	return nil
}

func mustAppend(t *testing.T, tbl *Table, id, n int, shape func(i int) dist.Dist) {
	t.Helper()
	if err := appendRows(tbl, id, n, shape); err != nil {
		t.Fatal(err)
	}
}

// slotQueries are the batch kernels a slot serves: a range threshold (a
// pdf block), a floor beside a certain filter (a block and a value lane),
// and a certain filter alone (a value lane, pass-through tuples).
func slotQueries(tbl *Table) map[string]func() (*Table, error) {
	return map[string]func() (*Table, error){
		"σPr∈": func() (*Table, error) { return tbl.SelectRangeThreshold("x", 2, 9, region.GE, 0.3) },
		"floor": func() (*Table, error) {
			return tbl.Select(Cmp(Col("id"), region.GE, LitI(40)), Cmp(Col("x"), region.LT, LitF(8)))
		},
		"certain": func() (*Table, error) { return tbl.Select(Cmp(Col("id"), region.LT, LitI(5000))) },
	}
}

// TestDivergentAppendDifferential: a table, a Freeze snapshot of it and a
// Clone overlay share batch slots, then the table and the overlay append
// different rows — the same number each round, so their partial batches
// keep equal lengths. Every read must match the scalar reference; it would
// not if the overlay shared the partial batch's slot, since an encoding of
// the table's rows would then cover exactly the overlay's batch.
func TestDivergentAppendDifferential(t *testing.T) {
	base := mixedColTable(t, 300)
	snap := base.Freeze()
	ov := base.Clone()
	tables := []*Table{base, snap, ov}
	for round := 0; round < 5; round++ {
		for k := range tables {
			// Alternate which table reads first, so each builds into a
			// slot the others may read next.
			tbl := tables[(k+round)%len(tables)]
			for name, q := range slotQueries(tbl) {
				vec, scalar := diffRun(t, q)
				label := fmt.Sprintf("round %d table %d %s", round, (k+round)%len(tables), name)
				if err := sameRows(vec, scalar); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
		}
		id := 1000 + 100*round
		mustAppend(t, base, id, 50, func(i int) dist.Dist { return dist.NewGaussian(float64(i%7), 1) })
		mustAppend(t, ov, id+50, 50, func(i int) dist.Dist { return dist.NewUniform(float64(i%5)+4, float64(i%5)+30) })
	}
	if base.Len() != 550 || ov.Len() != 550 || snap.Len() != 300 {
		t.Fatalf("lengths %d, %d, %d", base.Len(), ov.Len(), snap.Len())
	}
}

// TestSlotSurvivalDifferential: after a warm scan, DML rebuilds only the
// encodings of the batches it touched — a one-row INSERT the last batch, a
// Clone overlay its partial last batch, a Delete the batches from the
// removed row's on — while every read still matches the scalar reference.
func TestSlotSurvivalDifferential(t *testing.T) {
	tbl := mixedColTable(t, 2000) // 7 full batches and one of 208 rows
	misses := func(label string, tbl *Table, want uint64) {
		t.Helper()
		_, before := tbl.reg.colenc.Counters()
		vec, scalar := diffRun(t, func() (*Table, error) {
			return tbl.SelectRangeThreshold("x", 2, 9, region.GE, 0.3)
		})
		sameKeptTuples(t, label, vec, scalar)
		if _, after := tbl.reg.colenc.Counters(); after-before != want {
			t.Fatalf("%s: %d batches encoded, want %d", label, after-before, want)
		}
	}
	misses("cold scan", tbl, 8)
	misses("warm scan", tbl, 0)

	mustAppend(t, tbl, 5000, 1, func(int) dist.Dist { return dist.NewGaussian(5, 1) })
	misses("after a one-row insert", tbl, 1)

	ov := tbl.Clone()
	misses("overlay", ov, 1)
	mustAppend(t, ov, 6000, 1, func(int) dist.Dist { return dist.NewGaussian(6, 2) })
	misses("overlay after its insert", ov, 1)
	misses("base beside the overlay", tbl, 0)

	const r = 1000 // in batch 3
	if n, err := tbl.Delete(rowsWhere(tbl, func(id int64) bool { return id == r })); err != nil || n != 1 {
		t.Fatalf("delete removed %d (%v)", n, err)
	}
	misses("after a delete at row 1000", tbl, 5) // batches 3 to 7
	misses("overlay after the base's delete", ov, 0)
}

// TestSharedSlotStressDifferential: readers build into slots they share
// with a writer's table — frozen snapshots read as the writer inserts and
// deletes, and overlays append rows of their own — and every read matches
// the per-tuple scalar reference (Keep, Eval). Run it under -race.
func TestSharedSlotStressDifferential(t *testing.T) {
	base := mixedColTable(t, 600)
	var mu sync.Mutex // the writer's lock, as the engine's
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for op := 0; op < 150; op++ {
			mu.Lock()
			if op%10 == 9 {
				if _, err := base.Delete(rowsWhere(base, func(id int64) bool { return id%37 == int64(op%37) })); err != nil {
					t.Error(err)
				}
			} else if err := appendRows(base, 10000+op*3, 1+op%3, func(i int) dist.Dist { return dist.NewGaussian(float64(i%11), 1+float64(i%3)) }); err != nil {
				t.Error(err)
			}
			mu.Unlock()
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				mu.Lock()
				tbl := base.Freeze()
				if w%2 == 1 {
					tbl = base.Clone()
				}
				mu.Unlock()
				var err error
				if w%2 == 1 {
					err = appendRows(tbl, 50000+w*1000+i, 1+i%4, func(j int) dist.Dist { return dist.NewUniform(float64(j%6), float64(j%6)+12) })
				}
				if err == nil {
					err = matchesScalar(tbl)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// matchesScalar runs a range threshold and a floored selection through the
// batch kernels and checks them tuple by tuple against Keep and Eval,
// without touching the process-wide vectorization switch.
func matchesScalar(tbl *Table) error {
	ps := tbl.PlanRangeThreshold("x", 2, 9, region.GE, 0.3)
	got, err := tbl.RunProbSelection(ps)
	if err != nil {
		return err
	}
	var want []*Tuple
	for _, tup := range tbl.tuples {
		if k, err := ps.Keep(tup); err != nil {
			return err
		} else if k {
			want = append(want, tup)
		}
	}
	if len(got.tuples) != len(want) {
		return fmt.Errorf("σPr∈ over %d rows: kept %d, Keep %d", tbl.Len(), len(got.tuples), len(want))
	}
	for i := range want {
		if got.tuples[i] != want[i] {
			return fmt.Errorf("σPr∈ over %d rows: row %d differs", tbl.Len(), i)
		}
	}
	sel, err := tbl.PlanSelect(Cmp(Col("id"), region.GE, LitI(40)), Cmp(Col("x"), region.LT, LitF(8)))
	if err != nil {
		return err
	}
	built, err := tbl.RunSelection(sel)
	if err != nil {
		return err
	}
	var evals []*Tuple
	for _, tup := range tbl.tuples {
		e, err := sel.Eval(tup)
		if err != nil {
			return err
		}
		if e != nil {
			evals = append(evals, e)
		}
	}
	return sameRows(built, &Table{tuples: evals})
}

// sameRows compares two selections' rows: certain values by deep equality,
// pdf nodes by pointer or, for floored ones, by their pdf's rendering and
// the bits of its mass.
func sameRows(vec, scalar *Table) error {
	if len(vec.tuples) != len(scalar.tuples) {
		return fmt.Errorf("vec kept %d, scalar kept %d", len(vec.tuples), len(scalar.tuples))
	}
	for i, v := range vec.tuples {
		s := scalar.tuples[i]
		if !reflect.DeepEqual(v.certain, s.certain) || len(v.nodes) != len(s.nodes) {
			return fmt.Errorf("row %d: %v != %v", i, v.certain, s.certain)
		}
		for j, n := range v.nodes {
			m := s.nodes[j]
			if n != m && (math.Float64bits(n.Dist.Mass()) != math.Float64bits(m.Dist.Mass()) || n.Dist.String() != m.Dist.String()) {
				return fmt.Errorf("row %d node %d: %v != %v", i, j, n.Dist, m.Dist)
			}
		}
	}
	return nil
}
