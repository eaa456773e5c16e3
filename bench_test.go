// Repository-level benchmarks: one testing.B entry per figure of the
// paper's evaluation (§IV) plus the DESIGN.md ablations. Each benchmark
// runs a reduced sweep suitable for `go test -bench`; cmd/probbench runs the
// full experiments and prints the paper-style tables.
package main_test

import (
	"testing"

	"probdb/internal/bench"
	"probdb/internal/dist"
	"probdb/internal/workload"
)

// BenchmarkFig4AccuracyVsSampleSize regenerates Fig. 4: range-query error
// of histogram vs discrete approximations across sample sizes.
func BenchmarkFig4AccuracyVsSampleSize(b *testing.B) {
	cfg := bench.Fig4Config{Readings: 100, Queries: 100, SampleSizes: []int{5, 10, 15, 20, 25}, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows := bench.Fig4(cfg)
		if i == 0 {
			r := rows[0]
			b.ReportMetric(r.HistMeanErr, "histErr@5")
			b.ReportMetric(r.DiscMeanErr, "discErr@5")
		}
	}
}

// BenchmarkFig5DiscretizedPDFs regenerates Fig. 5 at one sweep point per
// representation: cold range-query scans over heap files.
func BenchmarkFig5DiscretizedPDFs(b *testing.B) {
	for _, repr := range []bench.Repr{bench.ReprDiscrete25, bench.ReprHist5, bench.ReprSymbolic} {
		b.Run(string(repr), func(b *testing.B) {
			cfg := bench.Fig5Config{
				Sizes:     []int{20_000},
				Reprs:     []bench.Repr{repr},
				Queries:   1,
				PoolPages: 16,
				Threshold: 0.5,
				Seed:      2,
				Dir:       b.TempDir(),
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows, err := bench.Fig5(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(rows[0].PageReads), "pageReads")
					b.ReportMetric(rows[0].BytesPerTuple, "B/tuple")
				}
			}
		})
	}
}

// BenchmarkFig6HistoryOverhead regenerates Fig. 6 at one sweep point: the
// join+project pipeline with and without history maintenance.
func BenchmarkFig6HistoryOverhead(b *testing.B) {
	cfg := bench.Fig6Config{Sizes: []int{1000}, HistBins: 8, Discrete: true, Seed: 3, Repeats: 3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig6(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[0].JoinOverheadPct, "joinOverhead%")
		}
	}
}

// BenchmarkAblationSymbolicFloors measures symbolic floors against eager
// histogram conversion (DESIGN.md ablation 1).
func BenchmarkAblationSymbolicFloors(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := bench.AblationSymbolicFloors(500, 4)
		if i == 0 {
			b.ReportMetric(float64(r.CollapsedTime)/float64(r.SymbolicTime), "collapsed/symbolic")
		}
	}
}

// BenchmarkAblationLazyEagerMerge measures lazy vs eager dependency-set
// merging (DESIGN.md ablation 2).
func BenchmarkAblationLazyEagerMerge(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := bench.AblationLazyEagerMerge(300, 5)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(r.EagerTime)/float64(r.LazyTime), "eager/lazy")
		}
	}
}

// BenchmarkAblationHistoryReplay measures floor composition against the
// replay alternative the paper rejects (DESIGN.md ablation 3).
func BenchmarkAblationHistoryReplay(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows := bench.AblationHistoryReplay(50, []int{8}, 6)
		if i == 0 {
			b.ReportMetric(float64(rows[0].ReplayTime)/float64(rows[0].ComposedTime), "replay/composed")
		}
	}
}

// BenchmarkAblationBufferPool measures buffer-pool sensitivity of the
// Fig. 5 scan (DESIGN.md ablation 4).
func BenchmarkAblationBufferPool(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblationBufferPool(20_000, []int{16, 1 << 20}, 7); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRangeQueryPerRepresentation is the microbenchmark under Fig. 4/5:
// one range-probability evaluation per representation.
func BenchmarkRangeQueryPerRepresentation(b *testing.B) {
	gen := workload.NewGen(8)
	rd := gen.Reading(0)
	q := gen.RangeQuery()
	reprs := map[string]dist.Dist{
		"symbolic":   rd.Value,
		"hist5":      dist.ToHistogram(rd.Value, 5),
		"discrete25": dist.Discretize(rd.Value, 25),
	}
	for name, d := range reprs {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = dist.MassInterval(d, q.Lo, q.Hi)
			}
		})
	}
}
