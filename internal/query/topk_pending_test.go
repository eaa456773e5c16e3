package query

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"probdb/internal/core"
	"probdb/internal/dist"
)

// pendingPDF renders row i's pdf literal for the pending-mass differential:
// Gaussians, uniforms, full and partial discrete pdfs, histograms (grids),
// exponentials and triangulars (the columnar fallback), with every tenth
// row a repeat of one Gaussian so that masses tie.
func pendingPDF(i int) string {
	c := 20 + float64(i*7919%6000)/100
	switch i % 10 {
	case 0:
		return fmt.Sprintf("UNIFORM(%g, %g)", c-3, c+3)
	case 1:
		return fmt.Sprintf("DISCRETE(%g:0.25, %g:0.5, %g:0.25)", c-1, c, c+1)
	case 2:
		return fmt.Sprintf("DISCRETE(%g:0.25, %g:0.5, %g:0.125)", c-1, c, c+1)
	case 3:
		return fmt.Sprintf("HISTOGRAM((%g, %g, %g):(0.5, 0.375))", c-4, c, c+4)
	case 4:
		return "EXPONENTIAL(0.02)"
	case 5:
		return fmt.Sprintf("TRIANGULAR(%g, %g, %g)", c-5, c, c+6)
	case 6:
		return "GAUSSIAN(50, 4)"
	}
	return fmt.Sprintf("GAUSSIAN(%g, 4)", c)
}

// pendingDB holds 700 rows — two full batches and a partial one — with two
// independent uncertain columns, a joint set, and a certain column that is
// NULL in every seventh row.
func pendingDB(t *testing.T) *DB {
	t.Helper()
	db := Open()
	mustExec(t, db, `CREATE TABLE r (rid INT, grp INT, x FLOAT UNCERTAIN, y FLOAT UNCERTAIN, a FLOAT UNCERTAIN, b FLOAT UNCERTAIN, DEPENDENT(a, b))`)
	for lo := 0; lo < 700; lo += 100 {
		var sb strings.Builder
		sb.WriteString(`INSERT INTO r (rid, grp, x, y, (a, b)) VALUES `)
		for i := lo; i < lo+100; i++ {
			if i > lo {
				sb.WriteByte(',')
			}
			grp := fmt.Sprint(i % 5)
			if i%7 == 0 {
				grp = "NULL"
			}
			fmt.Fprintf(&sb, "(%d, %s, %s, %s, DISCRETE((%d, %d):0.5, (%d, %d):0.25))",
				i, grp, pendingPDF(i), pendingPDF(i*31+7), i%60, i%40, i%60+20, i%40+10)
		}
		mustExec(t, db, sb.String())
	}
	return db
}

// pendingFingerprint renders a result with every float to the bit: the rows
// in order, each row's existence probability, and each uncertain column's
// encoded pdf.
func pendingFingerprint(t *testing.T, r *Result) string {
	t.Helper()
	tbl := r.Table
	var b strings.Builder
	b.WriteString(tbl.Render())
	for _, tup := range tbl.Tuples() {
		fmt.Fprintf(&b, "%x", math.Float64bits(tbl.ExistenceProb(tup)))
		for _, c := range tbl.Schema().Columns() {
			if !c.Uncertain {
				continue
			}
			d, err := tbl.DistOf(tup, c.Name)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, " %s=%x", c.Name, dist.Encode(d))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestTopKPendingDifferential: ORDER BY PROB(col) [DESC] LIMIT k, which ranks
// pending floor masses and builds only its k rows, returns the rows, order,
// existence probabilities and pdf bytes of the materialize-then-rank path
// (the scalar reference, SetVectorizedKernels(false)), and fails with the
// same error. Covered: ties, partial and full DISCRETE, UNIFORM, grids,
// NULL certain filters, two floors on one column, floors on two columns,
// a floor on one dimension of a joint set, !=, k beyond the survivor count,
// a PROB of an unfloored or a certain column, and uncached inputs (an index
// probe's candidates).
func TestTopKPendingDifferential(t *testing.T) {
	db := pendingDB(t)
	queries := []string{
		`SELECT * FROM r WHERE x < 50 ORDER BY PROB(x) DESC LIMIT 10`,
		`SELECT rid, x FROM r WHERE x < 50 ORDER BY PROB(x) LIMIT 25`,
		`SELECT rid, x FROM r WHERE x < 55.5 ORDER BY PROB(x) DESC LIMIT 300`,
		`SELECT rid, x FROM r WHERE grp > 1 AND x > 30 ORDER BY PROB(x) DESC LIMIT 12`,
		`SELECT rid, x FROM r WHERE x > 30 AND x < 60 ORDER BY PROB(x) DESC LIMIT 15`,
		`SELECT rid, x FROM r WHERE x > 30 AND grp >= 0 AND x <= 45 ORDER BY PROB(x) LIMIT 15`,
		`SELECT rid, x, y FROM r WHERE x < 55 AND y > 40 ORDER BY PROB(x) DESC LIMIT 20`,
		`SELECT rid, x, y FROM r WHERE x < 55 AND y > 40 ORDER BY PROB(y) LIMIT 20`,
		`SELECT rid, x, y FROM r WHERE x < 45 ORDER BY PROB(y) DESC LIMIT 9`,
		`SELECT rid, x FROM r WHERE x != 50 ORDER BY PROB(x) DESC LIMIT 11`,
		`SELECT rid, x FROM r WHERE x != 50 AND x < 70 ORDER BY PROB(x) LIMIT 11`,
		`SELECT rid, x FROM r WHERE x < 22 ORDER BY PROB(x) DESC LIMIT 100000`,
		`SELECT rid, x FROM r WHERE x < -1000 ORDER BY PROB(x) DESC LIMIT 5`,
		`SELECT rid, x FROM r WHERE x < 40 ORDER BY PROB(rid) DESC LIMIT 7`,
		`SELECT rid, a, b FROM r WHERE a < 30 ORDER BY PROB(a) DESC LIMIT 10`,
		`SELECT rid, a, b FROM r WHERE b >= 20 AND x < 50 ORDER BY PROB(b) LIMIT 10`,
		`SELECT rid FROM r WHERE x < 50 ORDER BY PROB(nope) DESC LIMIT 3`,
		`SELECT rid FROM r WHERE grp = 3 ORDER BY PROB(x) DESC LIMIT 8`,
	}
	run := func(sql string, vec bool) (string, string) {
		t.Helper()
		core.SetVectorizedKernels(vec)
		defer core.SetVectorizedKernels(true)
		r, err := db.Exec(sql)
		if err != nil {
			return "", err.Error()
		}
		return pendingFingerprint(t, r), ""
	}
	check := func(label string) {
		for _, sql := range queries {
			got, gotErr := run(sql, true)
			want, wantErr := run(sql, false)
			if gotErr != wantErr {
				t.Fatalf("%s %s: error %q, reference %q", label, sql, gotErr, wantErr)
			}
			if got != want {
				t.Fatalf("%s %s:\npending:\n%s\nreference:\n%s", label, sql, got, want)
			}
			// Only the unknown column fails, and only the impossible floor
			// keeps nothing.
			if rows := strings.Count(got, "\n") / 2; (gotErr != "") != strings.Contains(sql, "nope") ||
				(rows == 0 && gotErr == "") != strings.Contains(sql, "-1000") {
				t.Fatalf("%s %s: %d rows, error %q", label, sql, rows, gotErr)
			}
		}
	}
	check("scan")
	// An index on rid turns rid ranges into probes whose candidates are no
	// slice of a cached table; the masses come from dist.FloorMass per row.
	mustExec(t, db, `CREATE INDEX ON r (rid)`)
	queries = append(queries,
		`SELECT rid, x FROM r WHERE rid < 400 AND x < 50 ORDER BY PROB(x) DESC LIMIT 10`,
		`SELECT rid, x, y FROM r WHERE rid >= 100 AND rid < 650 AND x > 30 AND x < 60 AND y < 50 ORDER BY PROB(y) LIMIT 30`)
	check("indexed")
}
