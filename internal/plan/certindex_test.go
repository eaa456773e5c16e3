package plan

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"probdb/internal/core"
	"probdb/internal/region"
)

// randomKey draws a value for the certain column: mostly integers from a
// narrow range (many duplicates), plus NULLs and floats, integral or not.
func randomKey(rng *rand.Rand) core.Value {
	switch r := rng.Intn(20); {
	case r < 3:
		return core.Value{} // NULL
	case r < 5:
		return core.Float(float64(rng.Intn(14)-3) + 0.5)
	case r < 6:
		return core.Float(float64(rng.Intn(14) - 3))
	default:
		return core.Int(int64(rng.Intn(14) - 3))
	}
}

// TestCertIndexDifferential interleaves random inserts and deletes on a
// btree-indexed certain column and, after every step, checks each probe
// against a brute-force filter over the live rows: the candidates must be
// exactly the integer rows in the probed key range plus every NULL and
// float row, in base-table order. Check runs after every step too.
func TestCertIndexDifferential(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			tb := core.MustTable("c", core.MustSchema(core.Column{Name: "k", Type: core.FloatType}), nil, nil)
			insert := func() *core.Tuple {
				t.Helper()
				if err := tb.Insert(core.Row{Values: map[string]core.Value{"k": randomKey(rng)}}); err != nil {
					t.Fatal(err)
				}
				return tb.Tuples()[tb.Len()-1]
			}
			for i := 0; i < 80; i++ {
				insert()
			}
			ix := NewTableIndexes()
			if err := ix.Create(tb, "k"); err != nil {
				t.Fatal(err)
			}
			key := func(tup *core.Tuple) core.Value { v, _ := tb.Value(tup, "k"); return v }
			// want lists the live rows an integer key range [lo, hi] must
			// return: the integer rows inside it and every keyless row.
			want := func(in func(int64) bool) []*core.Tuple {
				var out []*core.Tuple
				for _, tup := range tb.Tuples() {
					if v := key(tup); v.Kind != core.IntValue || in(v.I) {
						out = append(out, tup)
					}
				}
				return out
			}
			check := func(step string) {
				t.Helper()
				if err := ix.Check(tb); err != nil {
					t.Fatalf("after %s: %v", step, err)
				}
				for _, lit := range []core.Value{
					core.Int(int64(rng.Intn(18) - 5)),
					core.Float(float64(rng.Intn(18)-5) + 0.5),
				} {
					f, _ := lit.AsFloat()
					for _, op := range []region.Op{region.EQ, region.LT, region.LE, region.GT, region.GE} {
						cand, ok := ix.ProbeBTree("k", op, lit)
						if !ok {
							t.Fatalf("after %s: ProbeBTree(k %v %v) refused", step, op, lit)
						}
						got := ix.Restrict(tb, cand)
						exp := want(func(k int64) bool { return op.Eval(float64(k), f) })
						if !slices.Equal(got, exp) {
							t.Fatalf("after %s: k %v %v: %d candidates, want %d", step, op, lit, len(got), len(exp))
						}
					}
				}
				lo, hi := int64(rng.Intn(18)-5), int64(rng.Intn(18)-5)
				cand, ok := ix.ProbeKeys("k", lo, hi)
				if !ok {
					t.Fatalf("after %s: ProbeKeys refused", step)
				}
				if got, exp := ix.Restrict(tb, cand), want(func(k int64) bool { return lo <= k && k <= hi }); !slices.Equal(got, exp) {
					t.Fatalf("after %s: keys [%d, %d]: %d candidates, want %d", step, lo, hi, len(got), len(exp))
				}
			}
			check("create")
			for step := 0; step < 300; step++ {
				if rng.Intn(2) == 0 && tb.Len() > 0 {
					// Delete every row holding one live row's value, or
					// that row alone.
					victim := tb.Tuples()[rng.Intn(tb.Len())]
					all := rng.Intn(3) == 0
					var gone []*core.Tuple
					for _, tup := range tb.Tuples() {
						if tup == victim || all && key(tup) == key(victim) {
							gone = append(gone, tup)
						}
					}
					if _, err := tb.Delete(gone); err != nil {
						t.Fatal(err)
					}
					for _, tup := range gone {
						if err := ix.NoteDelete(tup); err != nil {
							t.Fatal(err)
						}
					}
					check(fmt.Sprintf("step %d: delete %d rows", step, len(gone)))
					continue
				}
				for n := 1 + rng.Intn(3); n > 0; n-- {
					if err := ix.NoteInsert(tb, insert()); err != nil {
						t.Fatal(err)
					}
				}
				check(fmt.Sprintf("step %d: insert", step))
			}
		})
	}
}
