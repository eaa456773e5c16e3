package mc_test

import (
	"math"
	"runtime"
	"testing"

	"probdb/internal/core"
	"probdb/internal/dist"
	"probdb/internal/mc"
	"probdb/internal/pws"
)

func sampleTable(t *testing.T) *core.Table {
	t.Helper()
	schema := core.MustSchema(
		core.Column{Name: "k", Type: core.IntType},
		core.Column{Name: "v", Type: core.FloatType, Uncertain: true},
		core.Column{Name: "w", Type: core.FloatType, Uncertain: true},
	)
	tbl := core.MustTable("S", schema, nil, nil)
	for i := 0; i < 20; i++ {
		partial := dist.NewDiscrete(
			[]float64{float64(i), float64(i) + 1},
			[]float64{0.4, 0.3},
		)
		if err := tbl.Insert(core.Row{
			Values: map[string]core.Value{"k": core.Int(int64(i))},
			PDFs: []core.PDF{
				{Attrs: []string{"v"}, Dist: dist.NewGaussian(float64(i), 1+float64(i%3))},
				{Attrs: []string{"w"}, Dist: partial},
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// TestSampleWorldsParallelDifferential: the worlds drawn at GOMAXPROCS 1
// (one inline loop) and GOMAXPROCS 8 (morsels) are identical — keys, values
// (bitwise), existence pattern, and order.
func TestSampleWorldsParallelDifferential(t *testing.T) {
	tbl := sampleTable(t)
	const n = 200
	at := func(procs int) []pws.World {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return mc.SampleWorlds(tbl, n, 42, "k")
	}
	seq, par := at(1), at(8)
	if len(seq) != len(par) {
		t.Fatalf("world counts differ: %d vs %d", len(seq), len(par))
	}
	for wi := range seq {
		sw, pw := seq[wi], par[wi]
		if sw.Prob != pw.Prob || len(sw.Rows) != len(pw.Rows) {
			t.Fatalf("world %d shape differs: %d/%v vs %d/%v rows",
				wi, len(sw.Rows), sw.Prob, len(pw.Rows), pw.Prob)
		}
		for ri := range sw.Rows {
			sr, pr := sw.Rows[ri], pw.Rows[ri]
			if sr.Key != pr.Key {
				t.Fatalf("world %d row %d key differs: %q vs %q", wi, ri, sr.Key, pr.Key)
			}
			if len(sr.Vals) != len(pr.Vals) {
				t.Fatalf("world %d row %d val count differs", wi, ri)
			}
			for name, sv := range sr.Vals {
				pv, ok := pr.Vals[name]
				if !ok || math.Float64bits(sv) != math.Float64bits(pv) {
					t.Fatalf("world %d row %d %s differs bitwise: %v vs %v", wi, ri, name, sv, pv)
				}
			}
		}
	}
}

// TestSampleWorldsSeedSensitivity: different seeds produce different
// worlds (the per-world streams actually vary).
func TestSampleWorldsSeedSensitivity(t *testing.T) {
	tbl := sampleTable(t)
	a := mc.SampleWorlds(tbl, 50, 1, "k")
	b := mc.SampleWorlds(tbl, 50, 2, "k")
	same := true
outer:
	for wi := range a {
		if len(a[wi].Rows) != len(b[wi].Rows) {
			same = false
			break
		}
		for ri := range a[wi].Rows {
			for name, av := range a[wi].Rows[ri].Vals {
				if bv, ok := b[wi].Rows[ri].Vals[name]; !ok || av != bv {
					same = false
					break outer
				}
			}
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 drew identical world sets")
	}
}

// BenchmarkSampleWorlds tracks the sampler's allocation profile (the
// preallocation/identity-sharing fixes show up in allocs/op).
func BenchmarkSampleWorlds(b *testing.B) {
	tbl := sampleTableB(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mc.SampleWorlds(tbl, 100, 7, "k")
	}
}

func sampleTableB(b *testing.B) *core.Table {
	b.Helper()
	schema := core.MustSchema(
		core.Column{Name: "k", Type: core.IntType},
		core.Column{Name: "v", Type: core.FloatType, Uncertain: true},
	)
	tbl := core.MustTable("S", schema, nil, nil)
	for i := 0; i < 50; i++ {
		if err := tbl.Insert(core.Row{
			Values: map[string]core.Value{"k": core.Int(int64(i))},
			PDFs:   []core.PDF{{Attrs: []string{"v"}, Dist: dist.NewGaussian(float64(i), 2)}},
		}); err != nil {
			b.Fatal(err)
		}
	}
	return tbl
}
