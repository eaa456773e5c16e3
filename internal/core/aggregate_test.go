package core

import (
	"errors"
	"math"
	"testing"

	"probdb/internal/dist"
)

func discreteTable(t *testing.T, rows [][2][]float64) *Table {
	t.Helper()
	schema := MustSchema(
		Column{Name: "k", Type: IntType},
		Column{Name: "x", Type: IntType, Uncertain: true},
	)
	tbl := MustTable("T", schema, nil, nil)
	for i, r := range rows {
		if err := tbl.Insert(Row{
			Values: map[string]Value{"k": Int(int64(i))},
			PDFs:   []PDF{{Attrs: []string{"x"}, Dist: dist.NewDiscrete(r[0], r[1])}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestAggregateSumExact(t *testing.T) {
	// X1 ∈ {1:0.5, 2:0.5}, X2 ∈ {10:1}. Sum ∈ {11:0.5, 12:0.5}.
	tbl := discreteTable(t, [][2][]float64{
		{{1, 2}, {0.5, 0.5}},
		{{10}, {1}},
	})
	s, err := tbl.AggregateSum("x", AggOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d, ok := s.(*dist.Discrete)
	if !ok {
		t.Fatalf("small sum should be exact, got %T", s)
	}
	if got := d.At([]float64{11}); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("P(11) = %v", got)
	}
	if got := d.At([]float64{12}); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("P(12) = %v", got)
	}
}

func TestAggregateSumPartialContributesZero(t *testing.T) {
	// A tuple existing with probability 0.5 contributes 0 when absent.
	tbl := discreteTable(t, [][2][]float64{
		{{4}, {0.5}},
	})
	s, err := tbl.AggregateSum("x", AggOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d := s.(*dist.Discrete)
	if got := d.At([]float64{0}); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("P(0) = %v, want 0.5 (absence)", got)
	}
	if got := d.At([]float64{4}); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("P(4) = %v", got)
	}
}

func TestAggregateSumSwitchesToGaussian(t *testing.T) {
	// 40 tuples with 3-point supports: 3^40 worlds — the exponential blowup
	// of §I. The aggregate must come back as the continuous approximation.
	rows := make([][2][]float64, 40)
	for i := range rows {
		rows[i] = [2][]float64{{0, 1, 2}, {0.25, 0.5, 0.25}}
	}
	tbl := discreteTable(t, rows)
	s, err := tbl.AggregateSum("x", AggOptions{MaxExactSupport: 64})
	if err != nil {
		t.Fatal(err)
	}
	if dist.KindOf(s) != dist.KindContinuous {
		t.Fatalf("large sum should be continuous, got %T", s)
	}
	// Moment match: mean 40·1 = 40, variance 40·0.5 = 20.
	if !almostEqual(s.Mean(0), 40, 1e-9) {
		t.Errorf("mean = %v", s.Mean(0))
	}
	if !almostEqual(s.Variance(0), 20, 1e-9) {
		t.Errorf("variance = %v", s.Variance(0))
	}
}

func TestAggregateSumContinuousInputs(t *testing.T) {
	schema := MustSchema(Column{Name: "x", Type: FloatType, Uncertain: true})
	tbl := MustTable("T", schema, nil, nil)
	for i := 0; i < 3; i++ {
		if err := tbl.Insert(Row{PDFs: []PDF{{Attrs: []string{"x"}, Dist: dist.NewGaussian(10, 2)}}}); err != nil {
			t.Fatal(err)
		}
	}
	s, err := tbl.AggregateSum("x", AggOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(s.Mean(0), 30, 1e-9) || !almostEqual(s.Variance(0), 12, 1e-9) {
		t.Errorf("sum of gaussians: mean %v var %v", s.Mean(0), s.Variance(0))
	}
}

func TestAggregateSumOverCertainColumn(t *testing.T) {
	schema := MustSchema(
		Column{Name: "v", Type: IntType},
		Column{Name: "x", Type: FloatType, Uncertain: true},
	)
	tbl := MustTable("T", schema, nil, nil)
	for i := int64(1); i <= 3; i++ {
		if err := tbl.Insert(Row{
			Values: map[string]Value{"v": Int(i)},
			PDFs:   []PDF{{Attrs: []string{"x"}, Dist: dist.NewUniform(0, 1)}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	s, err := tbl.AggregateSum("v", AggOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d := s.(*dist.Discrete)
	if got := d.At([]float64{6}); !almostEqual(got, 1, 1e-12) {
		t.Errorf("certain sum should be the point mass 6, got P(6)=%v: %v", got, d)
	}
}

func TestAggregateCountExactPoissonBinomial(t *testing.T) {
	tbl := discreteTable(t, [][2][]float64{
		{{1}, {0.5}}, // exists w.p. 0.5
		{{2}, {1.0}}, // certain
	})
	c, err := tbl.AggregateCount(AggOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d := c.(*dist.Discrete)
	if got := d.At([]float64{1}); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("P(count=1) = %v", got)
	}
	if got := d.At([]float64{2}); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("P(count=2) = %v", got)
	}
}

func TestAggregateCountGaussianFallback(t *testing.T) {
	rows := make([][2][]float64, 50)
	for i := range rows {
		rows[i] = [2][]float64{{1}, {0.5}}
	}
	tbl := discreteTable(t, rows)
	c, err := tbl.AggregateCount(AggOptions{MaxExactSupport: 10})
	if err != nil {
		t.Fatal(err)
	}
	if dist.KindOf(c) != dist.KindContinuous {
		t.Fatalf("large count should be continuous, got %T", c)
	}
	if !almostEqual(c.Mean(0), 25, 1e-9) || !almostEqual(c.Variance(0), 12.5, 1e-9) {
		t.Errorf("count moments: %v / %v", c.Mean(0), c.Variance(0))
	}
}

func TestAggregateAvg(t *testing.T) {
	tbl := discreteTable(t, [][2][]float64{
		{{2}, {1}},
		{{4}, {1}},
	})
	a, err := tbl.AggregateAvg("x", AggOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(a.Mean(0), 3, 1e-12) {
		t.Errorf("avg mean = %v", a.Mean(0))
	}
}

func TestAggregateEmptyTable(t *testing.T) {
	schema := MustSchema(Column{Name: "x", Type: FloatType, Uncertain: true})
	tbl := MustTable("T", schema, nil, nil)
	s, err := tbl.AggregateSum("x", AggOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.At([]float64{0}); got != 1 {
		t.Errorf("empty sum should be the point mass 0, got %v", got)
	}
	c, err := tbl.AggregateCount(AggOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.At([]float64{0}); got != 1 {
		t.Errorf("empty count should be the point mass 0, got %v", got)
	}
}

func TestAggregateErrors(t *testing.T) {
	schema := MustSchema(
		Column{Name: "s", Type: StringType},
		Column{Name: "x", Type: FloatType, Uncertain: true},
	)
	tbl := MustTable("T", schema, nil, nil)
	if _, err := tbl.AggregateSum("zz", AggOptions{}); err == nil {
		t.Error("unknown column should fail")
	}
	if _, err := tbl.AggregateSum("s", AggOptions{}); err == nil {
		t.Error("string column should fail")
	}
}

func TestAggregateMatchesMonteCarloSanity(t *testing.T) {
	// The Gaussian approximation of a sum of partial uniforms has the right
	// CDF at a few probe points (within CLT error).
	schema := MustSchema(Column{Name: "x", Type: FloatType, Uncertain: true})
	tbl := MustTable("T", schema, nil, nil)
	n := 30
	for i := 0; i < n; i++ {
		if err := tbl.Insert(Row{PDFs: []PDF{{Attrs: []string{"x"}, Dist: dist.NewUniform(0, 1)}}}); err != nil {
			t.Fatal(err)
		}
	}
	s, err := tbl.AggregateSum("x", AggOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Irwin–Hall(30): mean 15, var 30/12 = 2.5.
	if !almostEqual(s.Mean(0), 15, 1e-9) || !almostEqual(s.Variance(0), 2.5, 1e-9) {
		t.Fatalf("moments %v/%v", s.Mean(0), s.Variance(0))
	}
	if p := dist.CDF(s, 15); !almostEqual(p, 0.5, 1e-6) {
		t.Errorf("median CDF = %v", p)
	}
	_ = math.Pi
}

func gaussianTable(t *testing.T, n int, mu, variance float64) *Table {
	t.Helper()
	schema := MustSchema(
		Column{Name: "k", Type: IntType},
		Column{Name: "x", Type: FloatType, Uncertain: true},
	)
	tbl := MustTable("T", schema, nil, nil)
	for i := 0; i < n; i++ {
		if err := tbl.Insert(Row{
			Values: map[string]Value{"k": Int(int64(i))},
			PDFs:   []PDF{{Attrs: []string{"x"}, Dist: dist.NewGaussianVar(mu, variance)}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// TestAggregateSumVarianceExact: a contribution's variance is summed as
// m·v + m(1−m)·µ², not E[X²] − E[X]², which cancels a small variance under
// a large mean — to nothing for three N(10⁸, 10⁻⁴) rows, and in the eighth
// digit for N(1000, 10⁻⁴) rows.
func TestAggregateSumVarianceExact(t *testing.T) {
	for _, c := range []struct{ mu, variance float64 }{{1e8, 1e-4}, {1000, 1e-4}} {
		s, err := gaussianTable(t, 3, c.mu, c.variance).AggregateSum("x", AggOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Mean(0); got != 3*c.mu {
			t.Errorf("N(%g, %g)×3: mean %v, want %v", c.mu, c.variance, got, 3*c.mu)
		}
		if got, want := s.Variance(0), 3*c.variance; math.Abs(got-want) > 1e-12*want {
			t.Errorf("N(%g, %g)×3: variance %v, want %v (%v)", c.mu, c.variance, got, want, s)
		}
	}
}

// TestAggregateSumOverflowIsError: rows each within the GAUSSIAN bound
// whose sum leaves float64 fail SUM with ErrOverflow, neither panicking in
// the Gaussian constructor nor dropping the variance to a point mass: two
// N(0, 1e308) rows overflow the variance, two N(1e154, 1e280) rows the
// square of the mean.
func TestAggregateSumOverflowIsError(t *testing.T) {
	for _, c := range []struct{ mu, variance float64 }{{0, 1e308}, {1e154, 1e280}} {
		s, err := gaussianTable(t, 2, c.mu, c.variance).AggregateSum("x", AggOptions{})
		if !errors.Is(err, ErrOverflow) {
			t.Errorf("SUM of 2 N(%g, %g) = %v, %v; want ErrOverflow", c.mu, c.variance, s, err)
		}
	}
}

// TestAggregateSumExactLargeValues: certain values whose sum is finite
// convolve exactly, even where the square of that sum, which only the
// Gaussian approximation needs, overflows.
func TestAggregateSumExactLargeValues(t *testing.T) {
	schema := MustSchema(Column{Name: "x", Type: FloatType})
	tbl := MustTable("T", schema, nil, nil)
	for i := 0; i < 2; i++ {
		if err := tbl.Insert(Row{Values: map[string]Value{"x": Float(1e200)}}); err != nil {
			t.Fatal(err)
		}
	}
	s, err := tbl.AggregateSum("x", AggOptions{})
	if err != nil || s.Mean(0) != 2e200 || s.Variance(0) != 0 {
		t.Fatalf("SUM of two 1e200 = %v, %v; want a point mass at 2e200", s, err)
	}
}
