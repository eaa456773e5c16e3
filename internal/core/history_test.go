package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"probdb/internal/dist"
)

// freed counts the watched base pdfs the collector has found unreachable.
type freed struct{ n atomic.Int64 }

// watch watches every base pdf of the given rows of tbl.
func (f *freed) watch(t *testing.T, tbl *Table, tups ...*Tuple) {
	t.Helper()
	for _, tup := range tups {
		for _, set := range tbl.DepSets() {
			if err := tbl.WatchBase(tup, set[0], func() { f.n.Add(1) }); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// after collects garbage until want watched pdfs are freed (or two seconds
// pass), then twice more so that an over-count shows, and returns the count.
func (f *freed) after(want int64) int64 {
	for deadline := time.Now().Add(2 * time.Second); f.n.Load() < want && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 2; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	return f.n.Load()
}

// BenchmarkFreeze times one frozen copy of a 30 000-row table with two
// pdfs per row — what every SELECT's build step takes per FROM table: a
// shallow copy, whatever the table holds.
func BenchmarkFreeze(b *testing.B) {
	schema := MustSchema(
		Column{Name: "rid", Type: IntType},
		Column{Name: "x", Type: FloatType, Uncertain: true},
		Column{Name: "y", Type: FloatType, Uncertain: true},
	)
	tbl := MustTable("T", schema, nil, nil)
	for i := 0; i < 30000; i++ {
		g := dist.NewGaussian(float64(i%100), 2)
		if err := tbl.InsertValues([]Value{Int(int64(i)), Null, Null}, []dist.Dist{g, g}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frozen = tbl.Freeze()
	}
}

var frozen *Table
