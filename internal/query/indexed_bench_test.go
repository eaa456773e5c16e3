package query

import (
	"fmt"
	"strings"
	"testing"
)

// indexedReadings loads n rows shaped like the end-to-end benchmark's
// readings table — btree on rid, PTI on value when asked for, score
// unindexed — and analyzes it. Gaussian means are spread evenly over
// [20, 80).
func indexedReadings(tb testing.TB, n int, pti bool) *DB {
	tb.Helper()
	db := loadReadings(tb, n, `rid INT, sensor INT, value FLOAT UNCERTAIN, score FLOAT`, `rid, sensor, value, score`, indexedRow)
	mustExec(tb, db, `CREATE INDEX ON readings (rid)`)
	if pti {
		mustExec(tb, db, `CREATE INDEX ON readings (value)`)
	}
	mustExec(tb, db, `ANALYZE readings`)
	return db
}

// indexedRow renders indexedReadings' i-th VALUES tuple.
func indexedRow(i int) string {
	mean := 20 + float64(i*7919%6000)/100
	return fmt.Sprintf("(%d, %d, GAUSSIAN(%g, 4), %d.5)", i, i%97, mean, i%1000)
}

// loadReadings creates readings(cols) and loads n rows,
// row(i) rendering the i-th VALUES tuple, in 500-row INSERTs.
func loadReadings(tb testing.TB, n int, cols, targets string, row func(i int) string) *DB {
	tb.Helper()
	db := Open()
	mustExec(tb, db, `CREATE TABLE readings (`+cols+`)`)
	for i := 0; i < n; {
		var b strings.Builder
		b.WriteString(`INSERT INTO readings (` + targets + `) VALUES `)
		for j := 0; j < 500 && i < n; i, j = i+1, j+1 {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(row(i))
		}
		mustExec(tb, db, b.String())
	}
	return db
}

// benchShapes runs each statement shape as a sub-benchmark, statement i of
// a shape drawn by its sql(i), and reports allocations and rows per
// statement.
func benchShapes(b *testing.B, db *DB, shapes []stmtShape) {
	for _, c := range shapes {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			rows := 0
			for i := 0; i < b.N; i++ {
				r, err := db.Exec(c.sql(i))
				if err != nil {
					b.Fatal(err)
				}
				rows += r.Affected
			}
			b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
		})
	}
}

type stmtShape struct {
	name string
	sql  func(i int) string
}

// The three indexed statement shapes of the benchmark's point_read workload.
func pointSQL(n, i int) string {
	return fmt.Sprintf(`SELECT rid, sensor, value, score FROM readings WHERE rid = %d`, i*7919%n)
}

func range50SQL(n, i int) string {
	lo := i * 7919 % (n - 50)
	return fmt.Sprintf(`SELECT rid, value FROM readings WHERE rid >= %d AND rid < %d`, lo, lo+50)
}

// topkSQL is the benchmark's topk class: a score cut keeping 20–100 % of
// the table, ranked by score.
func topkSQL(i int) string {
	return fmt.Sprintf(`SELECT rid, score FROM readings WHERE score < %g ORDER BY score DESC LIMIT 10`, 200+float64(i*37%8000)/10)
}

func pti1pctSQL(i int) string {
	lo := 30 + float64(i*37%4000)/100
	return fmt.Sprintf(`SELECT rid FROM readings WHERE PROB(value IN [%g, %g]) >= 0.5`, lo, lo+2.74)
}

// BenchmarkIndexedSelect times the point_read statement shapes at the DB
// level over 25 000 rows: a btree point lookup, a 50-row two-sided btree
// range, a PTI range-threshold probe keeping about 1 % of the table, and a
// top-10 by the unindexed score under a score cut. delete_rid deletes one
// row by its indexed rid and re-inserts it, so the table keeps its size.
func BenchmarkIndexedSelect(b *testing.B) {
	const n = 25000
	db := indexedReadings(b, n, true)
	benchShapes(b, db, []stmtShape{
		{"point", func(i int) string { return pointSQL(n, i) }},
		{"range50", func(i int) string { return range50SQL(n, i) }},
		{"pti1pct", pti1pctSQL},
		{"topk", topkSQL},
	})
	b.Run("delete_rid", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k := i * 7919 % n
			if r := mustExec(b, db, fmt.Sprintf(`DELETE FROM readings WHERE rid = %d`, k)); r.Affected != 1 {
				b.Fatalf("rid = %d: deleted %d", k, r.Affected)
			}
			mustExec(b, db, `INSERT INTO readings (rid, sensor, value, score) VALUES `+indexedRow(k))
		}
	})
}
