package query

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"probdb/internal/core"
	"probdb/internal/dist"
)

// deleteDB loads n rows of d(rid INT, i INT, f FLOAT, s TEXT, value FLOAT
// UNCERTAIN) through the core API, so f can hold NaN and ±Inf beside NULL,
// with a btree on rid and a PTI on value. rid is unique but arrives
// shuffled, so rid order is not table order.
func deleteDB(t *testing.T, rng *rand.Rand, n int) *DB {
	t.Helper()
	db := Open()
	mustExec(t, db, `CREATE TABLE d (rid INT, i INT, f FLOAT, s TEXT, value FLOAT UNCERTAIN)`)
	tbl, _ := db.Table("d")
	floats := []core.Value{core.Null, core.Float(math.NaN()), core.Float(math.Inf(1)), core.Float(math.Inf(-1))}
	for _, rid := range rng.Perm(n) {
		i, f, s := core.Int(int64(rng.Intn(12)-4)), core.Float(float64(rng.Intn(16))/2-3), core.Str(string(rune('a'+rng.Intn(5))))
		if rng.Intn(8) == 0 {
			i = core.Null
		}
		if rng.Intn(5) == 0 {
			f = floats[rng.Intn(len(floats))]
		}
		if rng.Intn(10) == 0 {
			s = core.Null
		}
		c := float64(rng.Intn(60))
		var x dist.Dist = dist.NewGaussian(c, 1+float64(rng.Intn(4)))
		if rng.Intn(3) == 0 {
			x = dist.NewUniform(c, c+1+float64(rng.Intn(6)))
		}
		if err := tbl.Insert(core.Row{
			Values: map[string]core.Value{"rid": core.Int(int64(rid)), "i": i, "f": f, "s": s},
			PDFs:   []core.PDF{{Attrs: []string{"value"}, Dist: x}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(t, db, `CREATE INDEX ON d (rid)`)
	mustExec(t, db, `CREATE INDEX ON d (value)`)
	mustExec(t, db, `ANALYZE d`)
	return db
}

// deleteLiterals are literal-only conjuncts and whether each holds: DELETE
// folds them, SELECT refuses them, so the oracle drops a true one and
// expects nothing deleted for a false one.
var deleteLiterals = []struct {
	sql   string
	holds bool
}{
	{"1 = 1", true}, {"1 = 2", false}, {"2 > 1.5", true}, {"1 = 1.0", true},
	{"NULL = NULL", false}, {"'a' < 'b'", true}, {"1 < 'x'", false}, {"3 <> 3", false},
}

// deleteWhere draws one WHERE clause: one to three conjuncts mixing btree
// shapes on rid (points, ranges, a non-integral key, NULL, TEXT), INT, FLOAT
// and TEXT comparisons with NULLs, INT-vs-FLOAT and column-vs-column, PROB
// thresholds of both kinds, now and then a PROB over an unknown column, and
// a literal-only conjunct. It returns the DELETE's WHERE, the SELECT's (the
// literals dropped) and whether every literal holds.
func deleteWhere(rng *rand.Rand, n int) (del, sel string, holds bool) {
	ops := []string{"=", "<>", "<", "<=", ">", ">="}
	op := func() string { return ops[rng.Intn(len(ops))] }
	certain := []func() string{
		func() string { return fmt.Sprintf("rid = %d", rng.Intn(n)) },
		func() string { lo := rng.Intn(n); return fmt.Sprintf("rid >= %d AND rid < %d", lo, lo+1+rng.Intn(n/4)) },
		func() string { return fmt.Sprintf("%d > rid", rng.Intn(n)) },
		func() string { return fmt.Sprintf("rid %s %d.5", op(), rng.Intn(n)) },
		func() string { return fmt.Sprintf("rid %s NULL", op()) },
		func() string { return "rid < 'x'" },
		func() string { return fmt.Sprintf("i %s %d", op(), rng.Intn(10)-4) },
		func() string { return fmt.Sprintf("i %s %g", op(), float64(rng.Intn(16))/2-3) },
		func() string { return fmt.Sprintf("f %s %d", op(), rng.Intn(8)-3) },
		func() string { return fmt.Sprintf("i %s f", op()) },
		func() string { return fmt.Sprintf("f %s f", op()) },
		func() string { return fmt.Sprintf("s %s '%c'", op(), 'a'+rng.Intn(5)) },
		func() string { return fmt.Sprintf("i %s NULL", op()) },
	}
	cmp := func() string { return []string{">=", ">", "<", "<="}[rng.Intn(4)] }
	prob := []func() string{
		func() string { return fmt.Sprintf("PROB(value) %s %g", cmp(), float64(rng.Intn(5))/4) },
		func() string {
			lo := rng.Intn(60)
			return fmt.Sprintf("PROB(value IN [%d, %d]) %s %g", lo, lo+1+rng.Intn(15), cmp(), float64(1+rng.Intn(9))/10)
		},
	}
	var dels, sels []string
	holds = true
	for k := 1 + rng.Intn(3); k > 0; k-- {
		var c string
		switch r := rng.Intn(20); {
		case r < 11:
			c = certain[rng.Intn(len(certain))]()
		case r < 17:
			c = prob[rng.Intn(len(prob))]()
		case r < 18:
			c = "PROB(nope IN [0, 50]) >= 0.5"
		default:
			lit := deleteLiterals[rng.Intn(len(deleteLiterals))]
			dels = append(dels, lit.sql)
			holds = holds && lit.holds
			continue
		}
		dels, sels = append(dels, c), append(sels, c)
	}
	return strings.Join(dels, " AND "), strings.Join(sels, " AND "), holds
}

// rids returns the table's rid values, sorted.
func rids(t *testing.T, db *DB) []int64 {
	t.Helper()
	tb, _ := db.Table("d")
	out := make([]int64, 0, tb.Len())
	for _, tup := range tb.Tuples() {
		v, _ := tb.Value(tup, "rid")
		out = append(out, v.I)
	}
	slices.Sort(out)
	return out
}

// TestDeleteMatchesSelectDifferential: a DELETE removes exactly the rows the
// SELECT with the same WHERE returns — by rid, over seeded random clauses —
// and leaves the index bookkeeping mirroring the table, with index access
// paths and without, and with vectorized kernels and without. When the
// SELECT fails (a PROB over an unknown column some row reaches), the DELETE
// fails too and removes nothing.
func TestDeleteMatchesSelectDifferential(t *testing.T) {
	const n = 600 // two full batches and a partial one
	defer core.SetVectorizedKernels(true)
	for _, seed := range []int64{1, 2} {
		for _, forceScan := range []bool{false, true} {
			for _, vec := range []bool{true, false} {
				t.Run(fmt.Sprintf("seed=%d/scan=%v/vec=%v", seed, forceScan, vec), func(t *testing.T) {
					core.SetVectorizedKernels(vec)
					rng := rand.New(rand.NewSource(seed))
					var db *DB
					probes := uint64(0)
					for q := 0; q < 80; q++ {
						if db == nil || len(rids(t, db)) < n/2 {
							db = deleteDB(t, rng, n)
							db.SetForceScan(forceScan)
						}
						del, sel, holds := deleteWhere(rng, n)
						before := rids(t, db)
						var want []int64
						var wantErr error
						if holds {
							if sel == "" {
								want = before
							} else if r, err := db.Exec(`SELECT rid FROM d WHERE ` + sel); err != nil {
								wantErr = err
							} else {
								for _, tup := range r.Table.Tuples() {
									v, _ := r.Table.Value(tup, "rid")
									want = append(want, v.I)
								}
								slices.Sort(want)
							}
						}
						r, err := db.Exec(`DELETE FROM d WHERE ` + del)
						after := rids(t, db)
						if (err != nil) != (wantErr != nil) {
							t.Fatalf("DELETE … WHERE %s: err %v, SELECT err %v", del, err, wantErr)
						}
						var got []int64
						for _, rid := range before {
							if _, found := slices.BinarySearch(after, rid); !found {
								got = append(got, rid)
							}
						}
						if err == nil && r.Affected != len(got) {
							t.Fatalf("DELETE … WHERE %s: reports %d, removed %d", del, r.Affected, len(got))
						}
						if !slices.Equal(got, want) {
							t.Fatalf("DELETE … WHERE %s removed %v\nSELECT … WHERE %s returned %v", del, got, sel, want)
						}
						tb, _ := db.Table("d")
						if err := db.indexes["d"].Check(tb); err != nil {
							t.Fatalf("after DELETE … WHERE %s: %v", del, err)
						}
						if r != nil {
							probes += r.Planner.IndexProbes
						}
					}
					if forceScan != (probes == 0) {
						t.Errorf("force scan %v: DELETEs made %d index probes", forceScan, probes)
					}
				})
			}
		}
	}
}
