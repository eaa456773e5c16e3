package core

import (
	"math"
	"math/rand"
	"testing"

	"probdb/internal/dist"
)

// poissonBinomialReference is the plain O(n²) dynamic program over every
// row, certain or not: the loop poissonBinomial must reproduce bit for bit.
func poissonBinomialReference(probs []float64) []float64 {
	pk := make([]float64, len(probs)+1)
	pk[0] = 1
	for _, p := range probs {
		for k := len(pk) - 1; k >= 1; k-- {
			pk[k] = pk[k]*(1-p) + pk[k-1]*p
		}
		pk[0] *= 1 - p
	}
	return pk
}

// TestPoissonBinomialMatchesReference: skipping rows that exist for certain
// (or never), shifting once at the end and bounding the update by the rows
// folded in so far changes no bit of any P[count = k] — over random vectors
// mixing exact 0s and 1s with tiny, near-1 and ordinary probabilities.
func TestPoissonBinomialMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	special := []float64{0, 1, 1e-300, 1 - 1e-16, 0.5, math.SmallestNonzeroFloat64, 1 - 0x1p-53}
	for trial := 0; trial < 3000; trial++ {
		probs := make([]float64, rng.Intn(40))
		for i := range probs {
			switch r := rng.Intn(4); {
			case r == 0:
				probs[i] = special[rng.Intn(len(special))]
			case r == 1:
				probs[i] = 1
			default:
				probs[i] = rng.Float64()
			}
		}
		got, want := poissonBinomial(probs), poissonBinomialReference(probs)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d entries, want %d", trial, len(got), len(want))
		}
		for k := range want {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("trial %d %v: P[count=%d] = %v, reference %v", trial, probs, k, got[k], want[k])
			}
		}
	}
}

// BenchmarkAggregateCount times COUNT's exact Poisson-binomial over 2 000
// rows, nine in ten of which exist for certain — the shape of a COUNT over a
// probability threshold, whose survivors keep their full pdfs.
func BenchmarkAggregateCount(b *testing.B) {
	schema := MustSchema(
		Column{Name: "k", Type: IntType},
		Column{Name: "x", Type: FloatType, Uncertain: true},
	)
	tbl := MustTable("T", schema, nil, nil)
	for i := 0; i < 2000; i++ {
		d := dist.NewGaussian(float64(i%50), 2)
		if i%10 == 0 {
			d = dist.NewDiscrete([]float64{1, 2}, []float64{0.25, 0.5})
		}
		if err := tbl.Insert(Row{
			Values: map[string]Value{"k": Int(int64(i))},
			PDFs:   []PDF{{Attrs: []string{"x"}, Dist: d}},
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tbl.AggregateCount(AggOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
