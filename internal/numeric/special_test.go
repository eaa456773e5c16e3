package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLogFactorialSmall(t *testing.T) {
	want := []float64{1, 1, 2, 6, 24, 120, 720, 5040}
	for n, w := range want {
		got := math.Exp(LogFactorial(n))
		if !almostEqual(got, w, w*1e-12) {
			t.Errorf("exp(LogFactorial(%d)) = %v, want %v", n, got, w)
		}
	}
}

func TestLogFactorialLargeMatchesLgamma(t *testing.T) {
	for _, n := range []int{127, 128, 500, 10000} {
		want, _ := math.Lgamma(float64(n) + 1)
		if got := LogFactorial(n); !almostEqual(got, want, 1e-9) {
			t.Errorf("LogFactorial(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestLogFactorialPanicsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("LogFactorial(-1) should panic")
		}
	}()
	LogFactorial(-1)
}

func TestLogChoose(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{5, 2, 10}, {10, 0, 1}, {10, 10, 1}, {52, 5, 2598960},
	}
	for _, c := range cases {
		got := math.Exp(LogChoose(c.n, c.k))
		if !almostEqual(got, c.want, c.want*1e-10) {
			t.Errorf("C(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
}

func TestBinomialPMFSumsToOne(t *testing.T) {
	for _, p := range []float64{0, 0.2, 0.5, 0.9, 1} {
		var s KahanSum
		for k := 0; k <= 40; k++ {
			s.Add(BinomialPMF(k, 40, p))
		}
		if !almostEqual(s.Value(), 1, 1e-12) {
			t.Errorf("Binomial(40,%v) pmf sums to %v", p, s.Value())
		}
	}
}

func TestBinomialPMFOutOfSupport(t *testing.T) {
	if BinomialPMF(-1, 10, 0.5) != 0 || BinomialPMF(11, 10, 0.5) != 0 {
		t.Error("pmf outside support must be 0")
	}
}

func TestPoissonPMFKnown(t *testing.T) {
	// P[X=0] for lambda=2 is e^-2.
	if got := PoissonPMF(0, 2); !almostEqual(got, math.Exp(-2), 1e-14) {
		t.Errorf("PoissonPMF(0,2) = %v", got)
	}
	// Mode of Poisson(4) is at k=3 and k=4 with equal mass.
	if !almostEqual(PoissonPMF(3, 4), PoissonPMF(4, 4), 1e-14) {
		t.Error("Poisson(4) should have equal mass at 3 and 4")
	}
	if PoissonPMF(-1, 2) != 0 {
		t.Error("negative support must have zero mass")
	}
	if PoissonPMF(0, 0) != 1 {
		t.Error("Poisson(0) is a point mass at 0")
	}
}

func TestPoissonPMFNearlySumsToOne(t *testing.T) {
	var s KahanSum
	for k := 0; k < 200; k++ {
		s.Add(PoissonPMF(k, 30))
	}
	if !almostEqual(s.Value(), 1, 1e-10) {
		t.Errorf("Poisson(30) pmf sums to %v over [0,200)", s.Value())
	}
}

func TestGeometricPMF(t *testing.T) {
	if got := GeometricPMF(0, 0.25); !almostEqual(got, 0.25, 1e-15) {
		t.Errorf("GeometricPMF(0,0.25) = %v", got)
	}
	if got := GeometricPMF(2, 0.25); !almostEqual(got, 0.75*0.75*0.25, 1e-15) {
		t.Errorf("GeometricPMF(2,0.25) = %v", got)
	}
	var s KahanSum
	for k := 0; k < 400; k++ {
		s.Add(GeometricPMF(k, 0.1))
	}
	if !almostEqual(s.Value(), 1, 1e-12) {
		t.Errorf("Geometric(0.1) sums to %v", s.Value())
	}
}

func TestKahanSumCompensates(t *testing.T) {
	// 1 + 1e-16 repeated: naive summation loses the small terms entirely.
	var s KahanSum
	s.Add(1)
	for i := 0; i < 10_000_000; i++ {
		s.Add(1e-16)
	}
	if got, want := s.Value(), 1+1e-9; !almostEqual(got, want, 1e-12) {
		t.Errorf("compensated sum = %.18f, want %.18f", got, want)
	}
	s.Reset()
	if s.Value() != 0 {
		t.Error("Reset should zero the accumulator")
	}
}

func TestSumMatchesLoop(t *testing.T) {
	f := func(vs []float64) bool {
		for i, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			vs[i] = math.Mod(v, 1e6) // keep magnitudes bounded so plain sum cannot overflow
		}
		var plain float64
		for _, v := range vs {
			plain += v
		}
		// Kahan should be at least as accurate; just require agreement to
		// within a loose relative tolerance for random inputs.
		k := Sum(vs)
		scale := math.Max(1, math.Abs(plain))
		return math.Abs(k-plain) <= 1e-6*scale
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClamp01(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{-0.1, 0}, {0, 0}, {0.5, 0.5}, {1, 1}, {1.0000001, 1},
	}
	for _, c := range cases {
		if got := Clamp01(c.in); got != c.want {
			t.Errorf("Clamp01(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestIntegratePolynomial(t *testing.T) {
	// Integral of x^2 over [0,3] is 9.
	got := Integrate(func(x float64) float64 { return x * x }, 0, 3, 1e-12)
	if !almostEqual(got, 9, 1e-10) {
		t.Errorf("integral = %v, want 9", got)
	}
	// Reversed limits negate.
	if got := Integrate(func(x float64) float64 { return x * x }, 3, 0, 1e-12); !almostEqual(got, -9, 1e-10) {
		t.Errorf("reversed integral = %v, want -9", got)
	}
	if got := Integrate(math.Sin, 2, 2, 1e-12); got != 0 {
		t.Errorf("empty interval integral = %v, want 0", got)
	}
}

func TestIntegrateSharpPeak(t *testing.T) {
	// Narrow Gaussian inside a wide interval still integrates to ~1.
	got := Integrate(func(x float64) float64 { return NormalPDF(x, 50, 0.05) }, 0, 100, 1e-12)
	if !almostEqual(got, 1, 1e-6) {
		t.Errorf("sharp peak integral = %v, want 1", got)
	}
}
