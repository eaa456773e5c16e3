package dist

import (
	"math"
	"math/rand"
	"testing"

	"probdb/internal/numeric"
	"probdb/internal/region"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestGaussianBasics(t *testing.T) {
	g := NewGaussian(20, math.Sqrt(5))
	if g.Dim() != 1 || g.DimKind(0) != KindContinuous || g.Mass() != 1 {
		t.Fatal("Gaussian shape wrong")
	}
	if !almostEqual(g.Mean(0), 20, 1e-12) || !almostEqual(g.Variance(0), 5, 1e-12) {
		t.Errorf("mean/var = %v/%v", g.Mean(0), g.Variance(0))
	}
	if got := CDF(g, 20); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("CDF at mean = %v", got)
	}
	if got := g.At([]float64{20}); !almostEqual(got, 1/math.Sqrt(2*math.Pi*5), 1e-12) {
		t.Errorf("density at mean = %v", got)
	}
	if got := NewGaussian(20, 5).String(); got != "Gaus(20,25)" {
		t.Errorf("String = %q", got)
	}
}

func TestGaussianVarMatchesPaperNotation(t *testing.T) {
	// Table I writes Gaus(20,5) meaning mean 20, variance 5.
	g := NewGaussianVar(20, 5)
	if !almostEqual(g.Variance(0), 5, 1e-12) {
		t.Errorf("variance = %v, want 5", g.Variance(0))
	}
}

// TestGaussianTailQuantileExact: the cached tail quantiles give the bits
// numeric.NormalQuantile gives, so truncated supports, and the grids cut
// from them, are what they would be without the cache.
func TestGaussianTailQuantileExact(t *testing.T) {
	for _, g := range []Gaussian{{0, 1}, {20, math.Sqrt(5)}, {-3e150, 7e140}, {1e8, 1e-2}} {
		for _, p := range []float64{tailEps, 1 - tailEps} {
			if got, want := g.quantile(p), numeric.NormalQuantile(p, g.Mu, g.Sigma); got != want {
				t.Errorf("%v: quantile(%v) = %v, want %v", g, p, got, want)
			}
		}
	}
}

func TestUniformBasics(t *testing.T) {
	u := NewUniform(2, 6)
	if !almostEqual(u.Mean(0), 4, 1e-12) || !almostEqual(u.Variance(0), 16.0/12, 1e-12) {
		t.Errorf("mean/var = %v/%v", u.Mean(0), u.Variance(0))
	}
	if got := MassInterval(u, 3, 5); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("mass [3,5] = %v", got)
	}
	if got := MassInterval(u, -10, 0); got != 0 {
		t.Errorf("mass outside support = %v", got)
	}
	if got := u.MassIn(region.Box{region.Closed(0, 10)}); !almostEqual(got, 1, 1e-12) {
		t.Errorf("covering mass = %v", got)
	}
	sup := u.Support()[0]
	if sup.Lo != 2 || sup.Hi != 6 {
		t.Errorf("support = %v", sup)
	}
}

func TestExponentialBasics(t *testing.T) {
	e := NewExponential(0.5)
	if !almostEqual(e.Mean(0), 2, 1e-12) || !almostEqual(e.Variance(0), 4, 1e-12) {
		t.Errorf("mean/var = %v/%v", e.Mean(0), e.Variance(0))
	}
	if got := CDF(e, 2); !almostEqual(got, 1-math.Exp(-1), 1e-12) {
		t.Errorf("CDF(2) = %v", got)
	}
	if got := CDF(e, -1); got != 0 {
		t.Errorf("CDF below support = %v", got)
	}
}

func TestTriangularBasics(t *testing.T) {
	tr := NewTriangular(0, 2, 6)
	if !almostEqual(tr.Mean(0), 8.0/3, 1e-12) {
		t.Errorf("mean = %v", tr.Mean(0))
	}
	if got := CDF(tr, 2); !almostEqual(got, 2.0/6, 1e-12) { // (mode-lo)/(hi-lo)
		t.Errorf("CDF at mode = %v", got)
	}
	if got := CDF(tr, 0); got != 0 {
		t.Errorf("CDF at lo = %v", got)
	}
	if got := CDF(tr, 6); got != 1 {
		t.Errorf("CDF at hi = %v", got)
	}
}

func TestContinuousQuantileCDFRoundTrip(t *testing.T) {
	models := []contModel{
		Gaussian{Mu: 3, Sigma: 2},
		Uniform{Lo: -1, Hi: 4},
		Exponential{Rate: 1.5},
		Triangular{Lo: 0, Mode: 1, Hi: 5},
	}
	for _, m := range models {
		for _, p := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
			x := m.quantile(p)
			if got := m.cdf(x); !almostEqual(got, p, 1e-9) {
				t.Errorf("%v: cdf(quantile(%v)) = %v", m, p, got)
			}
		}
	}
}

func TestContinuousPDFIntegratesToCDF(t *testing.T) {
	// MassIn over a partition of the support must total 1.
	ds := []Dist{
		NewGaussian(0, 1),
		NewUniform(0, 1),
		NewExponential(2),
		NewTriangular(-2, 0, 3),
	}
	for _, d := range ds {
		sup := d.Support()[0]
		var total float64
		n := 64
		for i := 0; i < n; i++ {
			lo := sup.Lo + float64(i)*(sup.Hi-sup.Lo)/float64(n)
			hi := sup.Lo + float64(i+1)*(sup.Hi-sup.Lo)/float64(n)
			total += MassInterval(d, lo, hi)
		}
		if !almostEqual(total, 1, 1e-6) {
			t.Errorf("%v: partition mass = %v", d, total)
		}
	}
}

func TestContinuousSampleMoments(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	ds := []Dist{
		NewGaussian(10, 3),
		NewUniform(0, 10),
		NewExponential(0.25),
		NewTriangular(0, 5, 10),
	}
	const n = 200_000
	for _, d := range ds {
		var sum, sum2 float64
		for i := 0; i < n; i++ {
			x := d.Sample(r)[0]
			sum += x
			sum2 += x * x
		}
		mean := sum / n
		variance := sum2/n - mean*mean
		if !almostEqual(mean, d.Mean(0), 0.05*math.Max(1, math.Abs(d.Mean(0)))) {
			t.Errorf("%v: sample mean %v, want %v", d, mean, d.Mean(0))
		}
		if !almostEqual(variance, d.Variance(0), 0.05*math.Max(1, d.Variance(0))) {
			t.Errorf("%v: sample variance %v, want %v", d, variance, d.Variance(0))
		}
	}
}

func TestContinuousConstructorPanics(t *testing.T) {
	cases := []func(){
		func() { NewGaussian(0, 0) },
		func() { NewGaussian(0, -1) },
		func() { NewGaussianVar(0, 0) },
		func() { NewUniform(5, 5) },
		func() { NewUniform(5, 2) },
		func() { NewExponential(0) },
		func() { NewTriangular(0, 5, 3) },
		func() { NewTriangular(3, 2, 5) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d should panic", i)
				}
			}()
			f()
		}()
	}
}

func TestMarginalIdentityOn1D(t *testing.T) {
	g := NewGaussian(0, 1)
	if got := g.Marginal([]int{0}); got != g {
		t.Error("1-D marginal should return the receiver")
	}
	defer func() {
		if recover() == nil {
			t.Error("empty keep should panic")
		}
	}()
	g.Marginal(nil)
}

func TestSupportTruncationCoversBulk(t *testing.T) {
	g := NewGaussian(0, 1)
	sup := g.Support()[0]
	if sup.Lo > -5 || sup.Hi < 5 {
		t.Errorf("truncated support %v too tight", sup)
	}
	if math.IsInf(sup.Lo, 0) || math.IsInf(sup.Hi, 0) {
		t.Errorf("truncated support %v must be finite", sup)
	}
}
