package server

import (
	"fmt"
	"strings"
	"testing"
)

// readingsSession opens an engine holding an n-row readings table with two
// pdfs per row, and returns a session on it and its statement runner.
func readingsSession(b *testing.B, n int) (*Engine, func(sql string)) {
	e, err := OpenEngine(EngineConfig{Dir: b.TempDir(), CheckpointBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { e.Close() })
	ses := e.NewSession()
	b.Cleanup(func() { ses.Close() })
	exec := func(sql string) {
		if _, err := ses.Execute(sql); err != nil {
			b.Fatalf("%.80s: %v", sql, err)
		}
	}
	exec("CREATE TABLE readings (rid INT, value FLOAT UNCERTAIN, temp FLOAT UNCERTAIN)")
	var sb strings.Builder
	for lo := 0; lo < n; lo += 1000 {
		sb.Reset()
		sb.WriteString("INSERT INTO readings (rid, value, temp) VALUES ")
		for i := lo; i < min(lo+1000, n); i++ {
			if i > lo {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, GAUSSIAN(%d, 4), UNIFORM(%d, %d))", i, i%100, i%50, i%50+10)
		}
		exec(sb.String())
	}
	return e, exec
}

// BenchmarkBegin times opening (and rolling back) a transaction over a
// 30 000-row table with two pdfs per row: the overlay a BEGIN builds.
func BenchmarkBegin(b *testing.B) {
	_, exec := readingsSession(b, 30000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exec("BEGIN")
		exec("ROLLBACK")
	}
}

// BenchmarkScanAfterInsert times a one-row INSERT followed by a
// range-probability scan of the 25 000-row table it grew, and reports how
// many batch encodings each scan had to build (misses/scan): the INSERT
// touches only the last batch, so the scan rebuilds one.
func BenchmarkScanAfterInsert(b *testing.B) {
	e, exec := readingsSession(b, 25000)
	exec("SELECT rid FROM readings WHERE PROB(temp IN [20, 30]) >= 0.4") // warm
	_, before := e.DB().Registry().ColCache().Counters()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exec(fmt.Sprintf("INSERT INTO readings (rid, value, temp) VALUES (%d, GAUSSIAN(50, 4), UNIFORM(20, 30))", 25000+i))
		exec("SELECT rid FROM readings WHERE PROB(temp IN [20, 30]) >= 0.4")
	}
	b.StopTimer()
	_, after := e.DB().Registry().ColCache().Counters()
	b.ReportMetric(float64(after-before)/float64(b.N), "misses/scan")
}
