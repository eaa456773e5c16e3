package server

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// streamPDF renders the i-th pdf literal of the end-to-end benchmark's
// family mix: six Gaussians, two uniforms, a full and a partial discrete pdf
// in ten, centres over [20, 80).
func streamPDF(i int) string {
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

// streamReadings opens an in-memory engine holding the end-to-end
// benchmark's readings table — n rows, btree on rid, PTI on
// value, analyzed — and its 500-row sensors table.
func streamReadings(b *testing.B, n int) *Engine {
	b.Helper()
	e, err := OpenEngine(EngineConfig{})
	if err != nil {
		b.Fatal(err)
	}
	exec := func(sql string) {
		if _, err := e.Execute(sql); err != nil {
			b.Fatalf("%.60s: %v", sql, err)
		}
	}
	exec(`CREATE TABLE readings (rid INT, sensor INT, value FLOAT UNCERTAIN, temp FLOAT UNCERTAIN, score FLOAT)`)
	exec(`CREATE TABLE sensors (sid INT, drift FLOAT UNCERTAIN, zone INT)`)
	for lo := 0; lo < n; lo += 500 {
		var sb strings.Builder
		sb.WriteString(`INSERT INTO readings (rid, sensor, value, temp, score) VALUES `)
		for i := lo; i < min(lo+500, n); i++ {
			if i > lo {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "(%d, %d, %s, %s, %g)", i, i%500, streamPDF(i), streamPDF(i*31+7), float64(i*6151%100000)/100)
		}
		exec(sb.String())
	}
	var sb strings.Builder
	sb.WriteString(`INSERT INTO sensors (sid, drift, zone) VALUES `)
	for i := 0; i < 500; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "(%d, %s, %d)", i, streamPDF(i*17+3), i%10)
	}
	exec(sb.String())
	exec(`CREATE INDEX ON readings (rid)`)
	exec(`CREATE INDEX ON readings (value)`)
	exec(`ANALYZE`)
	return e
}

// BenchmarkStreamShapes times the five statement classes of the end-to-end
// benchmark's scan_analytic workload, and point_read's PTI range-threshold
// probe (ptirange), the way a server runs them: Engine.ExecuteStream into
// the server's sink, which encodes every batch as a RowBatch payload (the
// socket write aside) — the path BenchmarkScanShapes and
// BenchmarkIndexedSelect, which materialize db.Exec's result table, do not
// measure. 25 000 readings; rows and payload bytes per statement reported.
func BenchmarkStreamShapes(b *testing.B) {
	e := streamReadings(b, 25000)
	defer e.Close()
	shapes := []struct {
		name string
		sql  func(i int) string
	}{
		{"probscan", func(i int) string {
			lo := 25 + float64(i*37%4000)/100
			return fmt.Sprintf(`SELECT rid FROM readings WHERE PROB(temp IN [%g, %g]) >= 0.8`, lo, lo+14)
		}},
		{"floorstream", func(i int) string {
			return fmt.Sprintf(`SELECT rid, value FROM readings WHERE value < %g`, 40+float64(i*37%2000)/100)
		}},
		{"topkprob", func(i int) string {
			return fmt.Sprintf(`SELECT rid FROM readings WHERE temp < %g ORDER BY PROB(temp) DESC LIMIT 10`, 35+float64(i*37%3000)/100)
		}},
		{"agg", func(i int) string {
			if i%2 == 0 {
				return fmt.Sprintf(`SELECT SUM(temp) FROM readings WHERE score < %d.5`, 50+i*37%150)
			}
			lo := 25 + float64(i*37%4000)/100
			return fmt.Sprintf(`SELECT COUNT(*) FROM readings WHERE PROB(temp IN [%g, %g]) >= 0.6`, lo, lo+12)
		}},
		{"ptirange", func(i int) string {
			lo := 25 + float64(i*37%4000)/100
			return fmt.Sprintf(`SELECT rid FROM readings WHERE PROB(value IN [%g, %g]) >= 0.9`, lo, lo+8)
		}},
		{"join", func(i int) string {
			return fmt.Sprintf(`SELECT r.rid, s.sid FROM readings AS r, sensors AS s WHERE r.sensor = s.sid AND r.value < s.drift AND r.score < %g`, 10+float64(i*37%1500)/100)
		}},
	}
	for _, c := range shapes {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			rows, bytes := 0, 0
			for i := 0; i < b.N; i++ {
				var frame []byte
				sink := batchSink(&frame, func(p []byte, _ bool) error {
					bytes += len(p)
					return nil
				})
				res, _, err := e.ExecuteStream(context.Background(), c.sql(i), sink)
				if err != nil {
					b.Fatal(err)
				}
				rows += int(res.Affected)
			}
			b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
			b.ReportMetric(float64(bytes)/float64(b.N), "B-sent/op")
		})
	}
}
