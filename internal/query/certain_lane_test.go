package query

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"probdb/internal/core"
	"probdb/internal/dist"
	"probdb/internal/pipe"
	"probdb/internal/region"
	"probdb/internal/wire"
)

// laneDB holds 700 rows — two full batches and a partial one — of
// c(rid INT, i INT, f FLOAT, g FLOAT, s TEXT, x FLOAT UNCERTAIN), loaded
// through the core API so that its numeric columns can hold what SQL cannot
// write: NaN, ±Inf, -0 and other kinds (TEXT, BOOL) beside NULL and ints
// above 2^53. Values tie heavily; x alternates Gaussians with uniforms,
// which a floor can leave no mass. The second batch is numeric throughout,
// so its lanes take the all-numeric path.
func laneDB(t *testing.T) (*DB, *core.Table) {
	t.Helper()
	db := Open()
	mustExec(t, db, `CREATE TABLE c (rid INT, i INT, f FLOAT, g FLOAT, s TEXT, x FLOAT UNCERTAIN)`)
	tbl, _ := db.Table("c")
	rng := rand.New(rand.NewSource(29))
	ints := []core.Value{core.Null, core.Int(0), core.Int(-3), core.Int(1 << 53), core.Int(1<<53 + 1), core.Int(-(1<<53 + 1)), core.Str("7"), core.Bool(true)}
	floats := []core.Value{core.Null, core.Float(math.NaN()), core.Float(0), core.Float(math.Copysign(0, -1)),
		core.Float(math.Inf(1)), core.Float(math.Inf(-1)), core.Float(1 << 53), core.Str("x"), core.Bool(false)}
	pick := func(row int, odd []core.Value, num func() core.Value) core.Value {
		if (row < 256 || row >= 512) && rng.Intn(4) == 0 {
			return odd[rng.Intn(len(odd))]
		}
		return num()
	}
	for row := 0; row < 700; row++ {
		var x dist.Dist = dist.NewGaussian(float64(row%50), 4)
		if row%2 == 1 {
			x = dist.NewUniform(float64(row%50), float64(row%50+2))
		}
		if err := tbl.Insert(core.Row{
			Values: map[string]core.Value{
				"rid": core.Int(int64(row)),
				"i":   pick(row, ints, func() core.Value { return core.Int(int64(rng.Intn(12) - 4)) }),
				"f":   pick(row, floats, func() core.Value { return core.Float(float64(rng.Intn(16))/2 - 3) }),
				"g":   pick(row, floats, func() core.Value { return core.Float(float64(rng.Intn(8)) - 3) }),
				"s":   core.Str(string(rune('a' + rng.Intn(6)))),
			},
			PDFs: []core.PDF{{Attrs: []string{"x"}, Dist: x}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return db, tbl
}

// laneQueries are the certain filters and orders the lanes serve: every
// comparison as col op lit, lit op col and col op col, over INT and FLOAT
// columns, literals at -0, 2^53 + 1 and 1e308, beside a floor and a TEXT
// comparison the lanes do not serve; and ORDER BY a certain column ASC and
// DESC with LIMIT 0, 1, 10 and beyond the table.
func laneQueries() []string {
	var qs []string
	for _, op := range []string{"=", "!=", "<", "<=", ">", ">="} {
		qs = append(qs,
			fmt.Sprintf(`SELECT rid, i FROM c WHERE i %s 2`, op),
			fmt.Sprintf(`SELECT rid, f FROM c WHERE f %s -0.0`, op),
			fmt.Sprintf(`SELECT rid, i FROM c WHERE i %s 9007199254740993`, op),
			fmt.Sprintf(`SELECT rid, f FROM c WHERE 1e308 %s f`, op),
			fmt.Sprintf(`SELECT rid, i, f FROM c WHERE 1.5 %s i AND f %s g`, op, op),
			fmt.Sprintf(`SELECT rid, i, g FROM c WHERE i %s g`, op),
			fmt.Sprintf(`SELECT rid, f, x FROM c WHERE f %s 1 AND x < 30 AND s != 'c'`, op),
		)
	}
	for _, ord := range []string{"ASC", "DESC"} {
		for _, k := range []int{0, 1, 10, 1000} {
			qs = append(qs,
				fmt.Sprintf(`SELECT rid, i FROM c WHERE i > -2 ORDER BY i %s LIMIT %d`, ord, k),
				fmt.Sprintf(`SELECT rid, f FROM c WHERE f <= 2 ORDER BY f %s LIMIT %d`, ord, k),
				fmt.Sprintf(`SELECT rid, g, x FROM c WHERE 0 < g AND x > 20 ORDER BY f %s LIMIT %d`, ord, k),
				fmt.Sprintf(`SELECT rid, s FROM c WHERE s >= 'b' ORDER BY i %s LIMIT %d`, ord, k),
				fmt.Sprintf(`SELECT rid, s FROM c WHERE f != g ORDER BY s %s LIMIT %d`, ord, k),
			)
		}
	}
	return qs
}

// laneFingerprint renders a result for the differential: pendingFingerprint
// (rows in order, existence probabilities, pdf bytes) and the bytes
// wire.AppendRowBatch ships for it.
func laneFingerprint(t *testing.T, r *Result) string {
	t.Helper()
	tbl := r.Table
	frame := wire.AppendRowBatch(nil, &wire.RowBatch{Name: tbl.Name, Cols: wire.ColumnsOf(tbl), Rows: wire.RowsOf(tbl, tbl.Tuples())})
	return fmt.Sprintf("%s%x", pendingFingerprint(t, r), frame)
}

// TestCertainLaneDifferential: certain filters and ORDER BY a certain column
// … LIMIT k, which read batch value lanes and build only the k rows, return
// the rows, order, probabilities, pdfs and wire bytes of the scalar reference
// (SetVectorizedKernels(false)), over a scanned base table, a btree probe's
// candidates (no lanes) and a transaction overlay — and a filter
// driven batch by batch keeps matching the per-tuple Eval while INSERT and
// DELETE land mid-scan.
func TestCertainLaneDifferential(t *testing.T) {
	db, tbl := laneDB(t)
	run := func(db *DB, sql string, vec bool) (string, string) {
		t.Helper()
		core.SetVectorizedKernels(vec)
		defer core.SetVectorizedKernels(true)
		r, err := db.Exec(sql)
		if err != nil {
			return "", err.Error()
		}
		return laneFingerprint(t, r), ""
	}
	check := func(label string, db *DB, queries []string) {
		t.Helper()
		kept := 0
		for _, sql := range queries {
			got, gotErr := run(db, sql, true)
			want, wantErr := run(db, sql, false)
			if gotErr != "" || wantErr != "" {
				t.Fatalf("%s %s: error %q, reference %q", label, sql, gotErr, wantErr)
			}
			if got != want {
				t.Fatalf("%s %s:\nlanes:\n%s\nreference:\n%s", label, sql, got, want)
			}
			kept += strings.Count(got, "\n")
		}
		if kept == 0 {
			t.Fatalf("%s: no query kept a row", label)
		}
	}
	check("scan", db, laneQueries())
	if tbl.EncodedBytes() == 0 {
		t.Fatal("the scan built no lanes")
	}

	// A transaction overlay is a clone: it shares the full batches' lanes and
	// builds its own for the partial last batch, which it appends to.
	odb := OpenWith(db.Registry())
	if err := odb.Attach(tbl.Clone()); err != nil {
		t.Fatal(err)
	}
	mustExec(t, odb, `INSERT INTO c (rid, i, f, g, s, x) VALUES (700, 3, 2.5, 1, 'z', GAUSSIAN(25, 4))`)
	check("overlay", odb, laneQueries())

	// An index on rid turns rid ranges into probes whose candidates are no
	// slice of the table.
	mustExec(t, db, `CREATE INDEX ON c (rid)`)
	var probes []string
	for _, op := range []string{"=", "!=", "<", "<=", ">", ">="} {
		probes = append(probes,
			fmt.Sprintf(`SELECT rid, i, f FROM c WHERE rid < 400 AND i %s 1 AND 2 %s f`, op, op),
			fmt.Sprintf(`SELECT rid, f, g FROM c WHERE rid >= 100 AND f %s g ORDER BY g DESC LIMIT 7`, op))
	}
	check("indexed", db, probes)

	// Mid-scan DML: the filter is driven batch by batch against Eval, with
	// a row appended after the first batch and rows deleted after the second.
	sel, err := tbl.PlanSelect(
		core.Cmp(core.Col("i"), region.LE, core.LitI(4)),
		core.Cmp(core.LitF(-1), region.LT, core.Col("f")),
		core.Cmp(core.Col("f"), region.NE, core.Col("g")))
	if err != nil {
		t.Fatal(err)
	}
	sc := pipe.NewScan(tbl)
	if err := sc.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	var pend core.Pending
	for pulled := 1; ; pulled++ {
		batch, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if batch == nil {
			break
		}
		slots := make([]*core.Tuple, len(batch))
		if err := sel.EvalBatch(batch, &pend, slots); err != nil {
			t.Fatal(err)
		}
		for i, tup := range batch {
			want, err := sel.Eval(tup)
			if err != nil {
				t.Fatal(err)
			}
			if (slots[i] == nil) != (want == nil) {
				t.Fatalf("batch %d row %d: kept %v, Eval %v", pulled, i, slots[i] != nil, want != nil)
			}
		}
		switch pulled {
		case 1:
			mustExec(t, db, `INSERT INTO c (rid, i, f, g, s, x) VALUES (701, 1, 0.5, 0, 'q', GAUSSIAN(25, 4))`)
		case 2:
			mustExec(t, db, `DELETE FROM c WHERE rid >= 500 AND i = 2`)
		}
	}
}

// TestCertainLaneTopKAllocsDoNotScale: a top-k by a certain column over
// certain filters ranks batch lane values and builds only its k rows, so
// its allocations at 20 000 rows are those at 2 000 — ascending and
// descending, by the filtered column or another, literal on either side.
// The larger table has 71 more batches, so one allocation per batch would
// show as 71; the slack of 2 absorbs the race detector's runtime noise.
func TestCertainLaneTopKAllocsDoNotScale(t *testing.T) {
	queries := []string{
		`SELECT rid, score FROM readings WHERE score < 500 ORDER BY score DESC LIMIT 10`,
		`SELECT rid, sensor FROM readings WHERE 100 <= score AND sensor != 7 ORDER BY sensor LIMIT 10`,
		`SELECT rid FROM readings WHERE score > sensor ORDER BY rid DESC LIMIT 25`,
	}
	allocs := func(n int) []float64 {
		db := indexedReadings(t, n, false)
		var out []float64
		for _, sql := range queries {
			out = append(out, testing.AllocsPerRun(20, func() {
				if _, err := db.Exec(sql); err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
			}))
		}
		return out
	}
	small, big := allocs(2000), allocs(20000)
	for i, sql := range queries {
		if d := big[i] - small[i]; d > 2 || d < -2 {
			t.Errorf("%s: %v allocs at 2 000 rows, %v at 20 000", sql, small[i], big[i])
		}
	}
}
