package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestNormalPDFKnownValues(t *testing.T) {
	cases := []struct {
		x, mu, sigma, want float64
	}{
		{0, 0, 1, 0.3989422804014327},
		{1, 0, 1, 0.24197072451914337},
		{-1, 0, 1, 0.24197072451914337},
		{20, 20, math.Sqrt(5), 0.17841241161527712},
		{5, 2, 3, 0.08065690817304777},
	}
	for _, c := range cases {
		got := NormalPDF(c.x, c.mu, c.sigma)
		if !almostEqual(got, c.want, 1e-14) {
			t.Errorf("NormalPDF(%v,%v,%v) = %v, want %v", c.x, c.mu, c.sigma, got, c.want)
		}
	}
}

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct {
		x, mu, sigma, want float64
	}{
		{0, 0, 1, 0.5},
		{1.959963984540054, 0, 1, 0.975},
		{-1.959963984540054, 0, 1, 0.025},
		{1, 0, 1, 0.8413447460685429},
		{25, 20, math.Sqrt(5), 0.9873263406612659}, // z = sqrt(5)
	}
	for _, c := range cases {
		got := NormalCDF(c.x, c.mu, c.sigma)
		if !almostEqual(got, c.want, 1e-12) {
			t.Errorf("NormalCDF(%v,%v,%v) = %v, want %v", c.x, c.mu, c.sigma, got, c.want)
		}
	}
}

func TestNormalCDFTails(t *testing.T) {
	if p := NormalCDF(-25, 0, 1); p <= 0 || p > 1e-130 {
		t.Errorf("deep lower tail should be tiny positive, got %v", p)
	}
	if p := NormalCDF(40, 0, 1); p != 1 {
		t.Errorf("deep upper tail should round to 1, got %v", p)
	}
}

func TestNormalCDFSymmetry(t *testing.T) {
	f := func(z float64) bool {
		z = math.Mod(z, 8)
		lo := NormalCDF(-z, 0, 1)
		hi := NormalCDF(z, 0, 1)
		return almostEqual(lo+hi, 1, 1e-13)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalCDFMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		a, b = math.Mod(a, 100), math.Mod(b, 100)
		if a > b {
			a, b = b, a
		}
		return NormalCDF(a, 3, 2) <= NormalCDF(b, 3, 2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{1e-12, 1e-6, 0.01, 0.025, 0.3, 0.5, 0.7, 0.975, 0.99, 1 - 1e-6} {
		x := NormalQuantile(p, 0, 1)
		back := NormalCDF(x, 0, 1)
		if !almostEqual(back, p, 1e-12*math.Max(1, 1/p)) {
			t.Errorf("round trip p=%v -> x=%v -> %v", p, x, back)
		}
	}
}

func TestNormalQuantileShifted(t *testing.T) {
	x := NormalQuantile(0.5, 42, 7)
	if !almostEqual(x, 42, 1e-12) {
		t.Errorf("median of N(42,49) = %v, want 42", x)
	}
}

func TestNormalQuantilePanicsOutOfRange(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NormalQuantile(%v) should panic", p)
				}
			}()
			NormalQuantile(p, 0, 1)
		}()
	}
}

func TestIntegrateNormalPDFMatchesCDF(t *testing.T) {
	got := Integrate(func(x float64) float64 { return NormalPDF(x, 20, math.Sqrt(5)) }, 15, 25, 1e-12)
	want := NormalCDF(25, 20, math.Sqrt(5)) - NormalCDF(15, 20, math.Sqrt(5))
	if !almostEqual(got, want, 1e-10) {
		t.Errorf("integral = %v, CDF difference = %v", got, want)
	}
}
