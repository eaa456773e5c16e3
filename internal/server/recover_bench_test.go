package server

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// readingPDF renders one uncertain value in the benchmark's family mix: 60 %
// Gaussian, 20 % Uniform, 10 % three-point DISCRETE and 10 % partial
// DISCRETE, every parameter on a 1e-4 grid and every mass dyadic.
func readingPDF(r *rand.Rand) string {
	q4 := func(x float64) string { return strconv.FormatFloat(math.Round(x*1e4)/1e4, 'f', 4, 64) }
	u := r.Float64()
	m := 20 + 60*r.Float64()
	switch {
	case u < 0.6:
		return "GAUSSIAN(" + q4(m) + ", " + q4(4+32*r.Float64()) + ")"
	case u < 0.8:
		w := 1 + 9*r.Float64()
		return "UNIFORM(" + q4(m-w) + ", " + q4(m+w) + ")"
	case u < 0.9:
		d := 0.5 + 2.5*r.Float64()
		return "DISCRETE(" + q4(m-d) + ":0.25, " + q4(m) + ":0.5, " + q4(m+d) + ":0.25)"
	default:
		d := 0.5 + 2.5*r.Float64()
		return "DISCRETE(" + q4(m-d) + ":0.25, " + q4(m) + ":0.25, " + q4(m+d) + ":0.125)"
	}
}

// recoverDir builds a checkpointed data dir holding a benchmark-shaped
// readings table of n rows with the given indexes, and returns its path.
func recoverDir(b *testing.B, n int, indexCols ...string) string {
	b.Helper()
	dir := b.TempDir()
	e, err := OpenEngine(EngineConfig{Dir: dir, CheckpointBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	exec := func(sql string) {
		if _, err := e.Execute(sql); err != nil {
			b.Fatalf("%.80s: %v", sql, err)
		}
	}
	exec("CREATE TABLE readings (rid INT, sensor INT, value FLOAT UNCERTAIN, temp FLOAT UNCERTAIN, score FLOAT)")
	r := rand.New(rand.NewSource(1))
	var sb strings.Builder
	for lo := 0; lo < n; lo += 1000 {
		sb.Reset()
		sb.WriteString("INSERT INTO readings (rid, sensor, value, temp, score) VALUES ")
		for i := lo; i < lo+1000 && i < n; i++ {
			if i > lo {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d, %s, %s, %.4f)", i, r.Intn(500), readingPDF(r), readingPDF(r), 1000*r.Float64())
		}
		exec(sb.String())
	}
	for _, c := range indexCols {
		exec("CREATE INDEX ON readings (" + c + ")")
	}
	exec("CHECKPOINT")
	if err := e.Close(); err != nil {
		b.Fatal(err)
	}
	return dir
}

// BenchmarkRecover times what a restart costs over a checkpointed data dir:
// load the heap, rebuild the indexes the manifest names, replay an empty
// WAL. pti is the benchmark's readings table (btree on rid, PTI on value);
// btree is the same shape with only the btree; load has no index, so its
// time is the heap scan and the per-row insert path alone — what a table
// that only grows, like cluster_mix's cm_load, costs a restart per row.
func BenchmarkRecover(b *testing.B) {
	for _, bc := range []struct {
		name string
		rows int
		cols []string
	}{
		{"pti", 25000, []string{"rid", "value"}},
		{"btree", 20000, []string{"rid"}},
		{"load", 20000, nil},
	} {
		b.Run(bc.name, func(b *testing.B) {
			dir := recoverDir(b, bc.rows, bc.cols...)
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e, err := OpenEngine(EngineConfig{Dir: dir, CheckpointBytes: -1})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					if t, ok := e.DB().Table("readings"); !ok || t.Len() != bc.rows {
						b.Fatalf("recovered %v rows, want %d", ok, bc.rows)
					}
				}
				e.Abort()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			n := float64(b.N)
			b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/n, "ms/recovery")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/1e6/n, "MB/recovery")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n/float64(bc.rows), "allocs/row")
		})
	}
}
