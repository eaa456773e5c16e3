package server

import (
	"fmt"
	"strings"
	"testing"
)

// BenchmarkBegin times opening (and rolling back) a transaction over a
// 30 000-row table with two pdfs per row: the overlay a BEGIN builds.
func BenchmarkBegin(b *testing.B) {
	e, err := OpenEngine(EngineConfig{Dir: b.TempDir(), CheckpointBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	ses := e.NewSession()
	defer ses.Close()
	exec := func(sql string) {
		if _, err := ses.Execute(sql); err != nil {
			b.Fatalf("%.80s: %v", sql, err)
		}
	}
	exec("CREATE TABLE readings (rid INT, value FLOAT UNCERTAIN, temp FLOAT UNCERTAIN)")
	var sb strings.Builder
	for lo := 0; lo < 30000; lo += 1000 {
		sb.Reset()
		sb.WriteString("INSERT INTO readings (rid, value, temp) VALUES ")
		for i := lo; i < lo+1000; i++ {
			if i > lo {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, GAUSSIAN(%d, 4), UNIFORM(%d, %d))", i, i%100, i%50, i%50+10)
		}
		exec(sb.String())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exec("BEGIN")
		exec("ROLLBACK")
	}
}
