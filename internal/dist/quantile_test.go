package dist

import (
	"math"
	"math/rand"
	"testing"

	"probdb/internal/region"
)

// quantGridQ is the PTI's x-bound grid (internal/index's quantGrid).
var quantGridQ = []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95}

// bisectQuantile is the x-bound computation Quantile replaced — 60
// bisections of CDF over the truncated support, stopping at a relative
// width of 1e-12 — kept as the oracle Quantile must stay close to.
func bisectQuantile(d Dist, q float64) float64 {
	sup := d.Support()[0]
	lo, hi := sup.Lo, sup.Hi
	target := q * d.Mass()
	if target <= 0 {
		return lo
	}
	for i := 0; i < 60 && hi-lo > 1e-12*(1+math.Abs(hi)); i++ {
		mid := lo + (hi-lo)/2
		if CDF(d, mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo + (hi-lo)/2
}

// quantileFamilies lists one or more instances of every family Quantile
// starts from a closed form, plus the generic fallback (a Floored).
func quantileFamilies() map[string]Dist {
	return map[string]Dist{
		"gauss-sigma1e-6":   NewGaussian(20, 1e-6),
		"gauss-sigma1":      NewGaussian(-3.25, 1),
		"gauss-sigma1e4":    NewGaussian(1e3, 1e4),
		"gauss-bench":       NewGaussianVar(47.1234, 17.5),
		"uniform":           NewUniform(12.5, 19.75),
		"exponential":       NewExponential(0.3),
		"triangular":        NewTriangular(-2, 1, 7),
		"triangular-edge":   NewTriangular(0, 0, 3),
		"discrete":          NewDiscrete([]float64{10, 20}, []float64{0.5, 0.5}),
		"discrete-3pt":      NewDiscrete([]float64{37.5, 0.3, 1000}, []float64{0.25, 0.5, 0.25}),
		"discrete-partial":  NewDiscrete([]float64{1, 2.5, 4}, []float64{0.25, 0.25, 0.125}),
		"discrete-tenths":   NewDiscrete([]float64{1, 2, 3, 4}, []float64{0.1, 0.2, 0.3, 0.4}),
		"poisson":           NewPoisson(3.5),
		"binomial":          NewBinomial(12, 0.3),
		"bernoulli":         NewBernoulli(0.7),
		"histogram":         ToHistogram(NewGaussian(5, 2), 16),
		"histogram-zeros":   NewHistogram([]float64{0, 1, 2, 3, 4, 5}, []float64{0.2, 0, 0.3, 0, 0.5}),
		"histogram-partial": NewHistogram([]float64{-4, -1, 0, 2.5}, []float64{0.1, 0, 0.4}),
		"floored-generic":   NewGaussian(0, 1).Floor(0, region.Compare(region.LT, 0.5)),
	}
}

// TestQuantileExact: for every family and every x-bound grid point, the
// quantile is exact against CDF as computed — CDF(x) reaches q·Mass and the
// next float down does not — and agrees with the bisection it replaced.
func TestQuantileExact(t *testing.T) {
	for name, d := range quantileFamilies() {
		for _, q := range quantGridQ {
			x := Quantile(d, q)
			target := q * d.Mass()
			if math.IsInf(x, 0) || math.IsNaN(x) {
				t.Errorf("%s q=%v: Quantile = %v", name, q, x)
				continue
			}
			if c := CDF(d, x); !(c >= target) {
				t.Errorf("%s q=%v: CDF(%v) = %v < %v", name, q, x, c, target)
			}
			if prev := math.Nextafter(x, math.Inf(-1)); !(CDF(d, prev) < target) {
				t.Errorf("%s q=%v: CDF(prev %v) = %v >= %v", name, q, prev, CDF(d, prev), target)
			}
			if old := bisectQuantile(d, q); math.Abs(x-old) > 1e-9*(1+math.Abs(x)) {
				t.Errorf("%s q=%v: Quantile %v, bisection %v", name, q, x, old)
			}
		}
	}
}

// TestQuantileEdges: the contract's ends — every x qualifies below a zero
// target, none above the mass.
func TestQuantileEdges(t *testing.T) {
	g := NewGaussian(0, 1)
	if x := Quantile(g, 0); !math.IsInf(x, -1) {
		t.Errorf("q=0: %v, want -Inf", x)
	}
	if x := Quantile(NewDiscrete([]float64{14}, []float64{0}), 0.5); !math.IsInf(x, -1) {
		t.Errorf("zero-mass pdf: %v, want -Inf", x)
	}
	partial := NewDiscrete([]float64{1, 2}, []float64{0.25, 0.25})
	if x := Quantile(partial, 1.5); !math.IsInf(x, 1) {
		t.Errorf("q above the mass: %v, want +Inf", x)
	}
	if x := Quantile(partial, 1); x != 2 {
		t.Errorf("q=1 of a partial pdf: %v, want its last point", x)
	}
	// q = 1 of a closed form leaves contModel.quantile's domain and takes the
	// generic route; it still lands where the CDF first rounds to 1.
	for _, d := range []Dist{g, NewUniform(0, 3), NewExponential(2)} {
		x := Quantile(d, 1)
		if CDF(d, x) != 1 || CDF(d, math.Nextafter(x, math.Inf(-1))) == 1 {
			t.Errorf("%v q=1: x=%v CDF %v", d, x, CDF(d, x))
		}
	}
}

// TestQuantileRandomFamilies runs the exact contract over randomized
// members of every representation randomDist draws.
func TestQuantileRandomFamilies(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		d := randomDist(r)
		q := quantGridQ[r.Intn(len(quantGridQ))]
		x := Quantile(d, q)
		target := q * d.Mass()
		if target == 0 {
			if !math.IsInf(x, -1) {
				t.Fatalf("%v (zero mass) q=%v: %v, want -Inf", d, q, x)
			}
			continue
		}
		if !(CDF(d, x) >= target) || !(CDF(d, math.Nextafter(x, math.Inf(-1))) < target) {
			t.Fatalf("%v q=%v: x=%v CDF %v prev %v target %v", d, q, x,
				CDF(d, x), CDF(d, math.Nextafter(x, math.Inf(-1))), target)
		}
	}
}

// TestQuantileAllocs: the closed-form families answer without allocating,
// which is what lets the PTI build its x-bounds in O(1) allocations.
func TestQuantileAllocs(t *testing.T) {
	for _, d := range []Dist{NewGaussian(3, 2), NewUniform(0, 1), NewDiscrete([]float64{1, 2}, []float64{0.5, 0.25}), NewHistogram([]float64{0, 1, 2}, []float64{0.5, 0.5})} {
		if n := testing.AllocsPerRun(50, func() {
			_ = Quantile(d, 0.3)
			_ = SupportInterval(d)
			_ = CDF(d, 1.5)
		}); n != 0 {
			t.Errorf("%v: %v allocations per Quantile+SupportInterval+CDF", d, n)
		}
	}
}

// TestQuantileGridMatchesQuantile: the grid's Gaussian shortcut starts each
// polish where Quantile does, so every family's grid quantiles are
// Quantile's to the bit.
func TestQuantileGridMatchesQuantile(t *testing.T) {
	g := NewQuantileGrid(quantGridQ...)
	out := make([]float64, len(quantGridQ))
	ds := []Dist{
		NewGaussian(0, 1), NewGaussian(-3.5, 1e-3), NewGaussianVar(47.1234, 35.9), NewGaussian(1e6, 250),
		NewUniform(20, 31.5), NewExponential(0.7),
		NewDiscrete([]float64{1, 2, 3.5}, []float64{0.25, 0.25, 0.125}),
		NewGaussian(50, 4).Floor(0, region.Compare(region.LT, 49)),
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		ds = append(ds, NewGaussianVar(math.Round((20+60*r.Float64())*1e4)/1e4, 4+32*r.Float64()))
	}
	for _, d := range ds {
		g.Quantiles(d, out)
		for i, q := range quantGridQ {
			if want := Quantile(d, q); math.Float64bits(out[i]) != math.Float64bits(want) {
				t.Fatalf("%v at %v: grid %v, Quantile %v", d, q, out[i], want)
			}
		}
	}
}
