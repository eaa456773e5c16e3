package query

import (
	"fmt"
	"testing"
)

// scanReadings loads n rows of the end-to-end benchmark's five-column
// readings table, unindexed, in its family mix — six Gaussians, two
// uniforms, a full and a partial discrete pdf in ten — with centres spread
// over [20, 80) and scores over [0, 1000).
func scanReadings(tb testing.TB, n int) *DB {
	tb.Helper()
	pdf := func(i int) string {
		c := 20 + float64(i*7919%6000)/100
		switch i % 10 {
		case 0, 1:
			return fmt.Sprintf("UNIFORM(%g, %g)", c-3, c+3)
		case 2:
			return fmt.Sprintf("DISCRETE(%g:0.25, %g:0.5, %g:0.25)", c-1, c, c+1)
		case 3:
			return fmt.Sprintf("DISCRETE(%g:0.25, %g:0.5, %g:0.125)", c-1, c, c+1)
		}
		return fmt.Sprintf("GAUSSIAN(%g, 4)", c)
	}
	return loadReadings(tb, n, `rid INT, sensor INT, value FLOAT UNCERTAIN, temp FLOAT UNCERTAIN, score FLOAT`, `rid, sensor, value, temp, score`, func(i int) string {
		return fmt.Sprintf("(%d, %d, %s, %s, %g)", i, i%97, pdf(i), pdf(i*31+7), float64(i*6151%100000)/100)
	})
}

// BenchmarkScanShapes times the five whole-table statement shapes of the
// end-to-end benchmark — point_read's topk and scan_analytic's aggregate,
// threshold scan, most-probable top-k and floored stream — over 25 000
// rows at parallelism 1.
func BenchmarkScanShapes(b *testing.B) {
	benchShapes(b, scanReadings(b, 25000), []stmtShape{
		{"topk", func(i int) string {
			return fmt.Sprintf(`SELECT rid, score FROM readings WHERE score < %d.5 ORDER BY score DESC LIMIT 10`, 200+i*37%800)
		}},
		{"aggsum", func(i int) string {
			return fmt.Sprintf(`SELECT SUM(temp) FROM readings WHERE score < %d.5`, 50+i*37%150)
		}},
		{"probscan", func(i int) string {
			lo := 25 + float64(i*37%4000)/100
			return fmt.Sprintf(`SELECT rid FROM readings WHERE PROB(temp IN [%g, %g]) >= 0.8`, lo, lo+14)
		}},
		{"topkprob", func(i int) string {
			return fmt.Sprintf(`SELECT rid FROM readings WHERE temp < %g ORDER BY PROB(temp) DESC LIMIT 10`, 35+float64(i*37%3000)/100)
		}},
		{"floorstream", func(i int) string {
			return fmt.Sprintf(`SELECT rid, value FROM readings WHERE value < %g`, 40+float64(i*37%2000)/100)
		}},
	})
}
