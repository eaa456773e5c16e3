package query

import (
	"fmt"
	"strings"
	"testing"
)

// scanSensors is the size of the sensors table scanReadings loads beside the
// readings, every reading naming one of its rows.
const scanSensors = 500

// scanPDF renders the i-th pdf literal of the benchmark's family mix.
func scanPDF(i int) string {
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

// scanReadings loads n rows of the end-to-end benchmark's five-column
// readings table, unindexed, in its family mix — six Gaussians, two
// uniforms, a full and a partial discrete pdf in ten — with centres spread
// over [20, 80) and scores over [0, 1000), and its sensors table.
func scanReadings(tb testing.TB, n int) *DB {
	tb.Helper()
	db := loadReadings(tb, n, `rid INT, sensor INT, value FLOAT UNCERTAIN, temp FLOAT UNCERTAIN, score FLOAT`, `rid, sensor, value, temp, score`, func(i int) string {
		return fmt.Sprintf("(%d, %d, %s, %s, %g)", i, i%scanSensors, scanPDF(i), scanPDF(i*31+7), float64(i*6151%100000)/100)
	})
	mustExec(tb, db, `CREATE TABLE sensors (sid INT, drift FLOAT UNCERTAIN, zone INT)`)
	var b strings.Builder
	b.WriteString(`INSERT INTO sensors (sid, drift, zone) VALUES `)
	for i := 0; i < scanSensors; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "(%d, %s, %d)", i, scanPDF(i*17+3), i%10)
	}
	mustExec(tb, db, b.String())
	return db
}

// joinSQL is scan_analytic's join statement: readings ⋈ sensors on the
// certain key, an uncertain residual across the two, and a score cut that
// keeps 1–2.5 % of the readings.
func joinSQL(i int) string {
	return fmt.Sprintf(`SELECT r.rid, s.sid FROM readings AS r, sensors AS s WHERE r.sensor = s.sid AND r.value < s.drift AND r.score < %g`, 10+float64(i*37%1500)/100)
}

// BenchmarkScanShapes times the six whole-table statement shapes of the
// end-to-end benchmark — point_read's topk and scan_analytic's aggregate,
// threshold scan, most-probable top-k, floored stream and join — over
// 25 000 rows.
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
		{"join", joinSQL},
	})
}
