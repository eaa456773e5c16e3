package dist

import (
	"math"
	"math/rand"
	"testing"

	"probdb/internal/region"
)

func uniformHist(lo, hi float64, bins int) *Grid {
	edges := make([]float64, bins+1)
	masses := make([]float64, bins)
	for i := range edges {
		edges[i] = lo + float64(i)*(hi-lo)/float64(bins)
	}
	for i := range masses {
		masses[i] = 1 / float64(bins)
	}
	return NewHistogram(edges, masses)
}

func TestHistogramBasics(t *testing.T) {
	h := uniformHist(0, 10, 5)
	if h.Dim() != 1 || h.DimKind(0) != KindContinuous {
		t.Fatal("histogram shape wrong")
	}
	if !almostEqual(h.Mass(), 1, 1e-12) {
		t.Errorf("mass = %v", h.Mass())
	}
	if got := h.At([]float64{1}); !almostEqual(got, 0.1, 1e-12) {
		t.Errorf("density = %v, want 0.1", got)
	}
	if got := h.At([]float64{-1}); got != 0 {
		t.Errorf("density outside = %v", got)
	}
	// The top edge belongs to the last bucket.
	if got := h.At([]float64{10}); !almostEqual(got, 0.1, 1e-12) {
		t.Errorf("density at top edge = %v", got)
	}
}

func TestHistogramMassInInterpolates(t *testing.T) {
	h := uniformHist(0, 10, 5)
	// [1, 3] covers half of bucket 0 and half of bucket 1: mass 0.4... no:
	// buckets are [0,2),[2,4),... so [1,3] covers half of each = 0.2.
	if got := MassInterval(h, 1, 3); !almostEqual(got, 0.2, 1e-12) {
		t.Errorf("mass [1,3] = %v, want 0.2", got)
	}
	if got := MassInterval(h, -5, 15); !almostEqual(got, 1, 1e-12) {
		t.Errorf("covering mass = %v", got)
	}
}

func TestGridFloorExactRefinement(t *testing.T) {
	h := uniformHist(0, 10, 5)
	// Floor at x < 3: boundary 3 lies inside bucket [2,4), so the bucket
	// must be split, keeping exactly 0.3 total.
	f := h.Floor(0, region.Compare(region.LT, 3))
	if !almostEqual(f.Mass(), 0.3, 1e-12) {
		t.Errorf("floored mass = %v, want 0.3", f.Mass())
	}
	// Complementary floor keeps the rest: exact conservation.
	g := h.Floor(0, region.Compare(region.GE, 3))
	if !almostEqual(f.Mass()+g.Mass(), 1, 1e-12) {
		t.Errorf("floor + complement = %v", f.Mass()+g.Mass())
	}
	if f.At([]float64{3.5}) != 0 {
		t.Error("density above floor must be 0")
	}
	if got := f.At([]float64{2.5}); !almostEqual(got, 0.1, 1e-12) {
		t.Errorf("density below floor = %v, want 0.1", got)
	}
}

func TestGridMarginal(t *testing.T) {
	// 2x3 grid over continuous x discrete.
	axes := []Axis{
		{Kind: KindContinuous, Edges: []float64{0, 1, 2}},
		{Kind: KindDiscrete, Values: []float64{10, 20, 30}},
	}
	w := []float64{
		0.1, 0.2, 0.1, // x in [0,1)
		0.2, 0.3, 0.1, // x in [1,2)
	}
	g := NewGrid(axes, w)
	mx := g.Marginal([]int{0}).(*Grid)
	if !almostEqual(mx.Weights()[0], 0.4, 1e-12) || !almostEqual(mx.Weights()[1], 0.6, 1e-12) {
		t.Errorf("marginal over x = %v", mx.Weights())
	}
	my := g.Marginal([]int{1}).(*Grid)
	if !almostEqual(my.Weights()[1], 0.5, 1e-12) {
		t.Errorf("marginal over y = %v", my.Weights())
	}
	if !almostEqual(my.Mass(), 1, 1e-12) {
		t.Errorf("marginal mass = %v", my.Mass())
	}
}

func TestGridMixedAtAndMassIn(t *testing.T) {
	axes := []Axis{
		{Kind: KindContinuous, Edges: []float64{0, 2}},
		{Kind: KindDiscrete, Values: []float64{5, 7}},
	}
	g := NewGrid(axes, []float64{0.6, 0.4})
	// At a continuous point with a matching discrete coordinate: mass/width.
	if got := g.At([]float64{1, 5}); !almostEqual(got, 0.3, 1e-12) {
		t.Errorf("At = %v, want 0.3", got)
	}
	if got := g.At([]float64{1, 6}); got != 0 {
		t.Errorf("At mismatched discrete coordinate = %v", got)
	}
	box := region.Box{region.Closed(0, 1), region.Point(7)}
	if got := g.MassIn(box); !almostEqual(got, 0.2, 1e-12) {
		t.Errorf("MassIn = %v, want 0.2", got)
	}
}

func TestGridFloorDiscreteAxis(t *testing.T) {
	axes := []Axis{{Kind: KindDiscrete, Values: []float64{1, 2, 3}}}
	g := NewGrid(axes, []float64{0.2, 0.3, 0.5})
	f := g.Floor(0, region.Compare(region.NE, 2))
	if !almostEqual(f.Mass(), 0.7, 1e-12) {
		t.Errorf("mass = %v, want 0.7", f.Mass())
	}
	if f.At([]float64{2}) != 0 {
		t.Error("floored value should carry no mass")
	}
}

func TestGridFloorWhereSubsamples(t *testing.T) {
	// Uniform on [0,1]^2, predicate x < y keeps exactly half the mass. The
	// subsampled estimate should be close (cells straddling the diagonal are
	// estimated at sample resolution).
	axes := []Axis{
		{Kind: KindContinuous, Edges: equalEdges(0, 1, 8)},
		{Kind: KindContinuous, Edges: equalEdges(0, 1, 8)},
	}
	w := make([]float64, 64)
	for i := range w {
		w[i] = 1.0 / 64
	}
	g := NewGrid(axes, w)
	f := g.FloorWhere(func(x []float64) bool { return x[0] < x[1] })
	if !almostEqual(f.Mass(), 0.5, 0.05) {
		t.Errorf("mass after x<y = %v, want ~0.5", f.Mass())
	}
	if got := g.MassWhere(func(x []float64) bool { return x[0] < x[1] }); !almostEqual(got, 0.5, 0.05) {
		t.Errorf("MassWhere = %v, want ~0.5", got)
	}
}

func equalEdges(lo, hi float64, bins int) []float64 {
	e := make([]float64, bins+1)
	for i := range e {
		e[i] = lo + float64(i)*(hi-lo)/float64(bins)
	}
	return e
}

func TestGridMeanVariance(t *testing.T) {
	// Uniform histogram over [0,10] should reproduce uniform moments,
	// including the within-cell variance correction.
	h := uniformHist(0, 10, 5)
	if !almostEqual(h.Mean(0), 5, 1e-12) {
		t.Errorf("mean = %v", h.Mean(0))
	}
	if !almostEqual(h.Variance(0), 100.0/12, 1e-9) {
		t.Errorf("variance = %v, want %v", h.Variance(0), 100.0/12)
	}
}

func TestGridSample(t *testing.T) {
	axes := []Axis{
		{Kind: KindContinuous, Edges: []float64{0, 1, 2}},
		{Kind: KindDiscrete, Values: []float64{5, 7}},
	}
	g := NewGrid(axes, []float64{0.5, 0, 0, 0.5})
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		x := g.Sample(r)
		// Only cells (bin0, 5) and (bin1, 7) carry mass.
		if x[1] == 5 && !(x[0] >= 0 && x[0] < 1) {
			t.Fatalf("sample %v from empty cell", x)
		}
		if x[1] == 7 && !(x[0] >= 1 && x[0] <= 2) {
			t.Fatalf("sample %v from empty cell", x)
		}
		if x[1] != 5 && x[1] != 7 {
			t.Fatalf("discrete coordinate %v invalid", x[1])
		}
	}
}

func TestGridConstructorPanics(t *testing.T) {
	cases := []func(){
		func() { NewGrid(nil, nil) },
		func() { NewGrid([]Axis{{Kind: KindContinuous, Edges: []float64{0}}}, []float64{}) },
		func() { NewGrid([]Axis{{Kind: KindContinuous, Edges: []float64{0, 0}}}, []float64{1}) },
		func() { NewGrid([]Axis{{Kind: KindContinuous, Edges: []float64{0, 1}}}, []float64{1, 2}) },
		func() { NewGrid([]Axis{{Kind: KindContinuous, Edges: []float64{0, 1}}}, []float64{-0.5}) },
		func() { NewGrid([]Axis{{Kind: KindContinuous, Edges: []float64{0, 1}}}, []float64{2}) },
		func() { NewGrid([]Axis{{Kind: KindDiscrete, Values: nil}}, nil) },
		func() { NewGrid([]Axis{{Kind: KindDiscrete, Values: []float64{2, 1}}}, []float64{0.5, 0.5}) },
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

func TestAxisLocate(t *testing.T) {
	a := Axis{Kind: KindContinuous, Edges: []float64{0, 1, 2, 4}}
	cases := []struct {
		x    float64
		want int
	}{
		{-0.1, -1}, {0, 0}, {0.5, 0}, {1, 1}, {3.9, 2}, {4, 2}, {4.1, -1},
	}
	for _, c := range cases {
		if got := a.locate(c.x); got != c.want {
			t.Errorf("locate(%v) = %d, want %d", c.x, got, c.want)
		}
	}
	d := Axis{Kind: KindDiscrete, Values: []float64{1, 3, 5}}
	if d.locate(3) != 1 || d.locate(2) != -1 || d.locate(5) != 2 {
		t.Error("discrete locate wrong")
	}
}

func TestGridZeroMassAfterTotalFloor(t *testing.T) {
	h := uniformHist(0, 10, 5)
	f := h.Floor(0, region.Compare(region.GT, 100))
	if f.Mass() != 0 {
		t.Errorf("mass = %v, want 0", f.Mass())
	}
	if !math.IsNaN(f.Mean(0)) {
		t.Errorf("mean of zero-mass grid should be NaN, got %v", f.Mean(0))
	}
}

// randomAxis draws a continuous axis with irregular cell widths or a
// discrete one, its coordinates on a half-unit lattice so that two axes
// drawn over the same range share edges and values.
func randomAxis(r *rand.Rand, kind Kind, cells int) Axis {
	xs := make([]float64, 0, cells+1)
	x := float64(r.Intn(8))
	for len(xs) < cells+1 {
		xs = append(xs, x)
		x += 0.5 * float64(1+r.Intn(3))
	}
	if kind == KindContinuous {
		return Axis{Kind: KindContinuous, Edges: xs}
	}
	return Axis{Kind: KindDiscrete, Values: xs[:cells]}
}

// TestGridCompareFloorBitIdentical: FloorCompare must produce the float64
// weights FloorWhere produces with the comparison as an opaque predicate —
// over continuous and discrete axes in every pairing, with empty cells,
// cells whose edges touch, equal discrete values, a third axis the
// comparison does not name, and a dimension compared with itself.
func TestGridCompareFloorBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	kinds := [][]Kind{
		{KindContinuous, KindContinuous},
		{KindContinuous, KindDiscrete},
		{KindDiscrete, KindContinuous},
		{KindDiscrete, KindDiscrete},
		{KindContinuous, KindDiscrete, KindContinuous},
		{KindDiscrete, KindContinuous, KindContinuous},
	}
	ops := []region.Op{region.LT, region.LE, region.GT, region.GE, region.EQ, region.NE}
	decided := 0
	for trial := 0; trial < 60; trial++ {
		ks := kinds[trial%len(kinds)]
		axes := make([]Axis, len(ks))
		n := 1
		for d, k := range ks {
			axes[d] = randomAxis(r, k, 2+r.Intn(6))
			n *= axes[d].Cells()
		}
		w := make([]float64, n)
		for i := range w {
			if r.Intn(4) > 0 { // a quarter of the cells stay empty
				w[i] = r.Float64() / float64(n)
			}
		}
		g := NewGrid(axes, w)
		for _, dims := range [][2]int{{0, 1}, {1, 0}, {len(ks) - 1, 0}, {0, 0}} {
			l, rd := dims[0], dims[1]
			for _, op := range ops {
				want := g.FloorWhere(func(x []float64) bool { return op.Eval(x[l], x[rd]) }).(*Grid)
				got := g.FloorCompare(l, rd, op).(*Grid)
				for i := range want.w {
					if math.Float64bits(got.w[i]) != math.Float64bits(want.w[i]) {
						t.Fatalf("trial %d, x[%d] %v x[%d], cell %d: FloorCompare %v, FloorWhere %v",
							trial, l, op, rd, i, got.w[i], want.w[i])
					}
				}
				if math.Float64bits(got.mass) != math.Float64bits(want.mass) {
					t.Fatalf("trial %d, x[%d] %v x[%d]: mass %v, want %v", trial, l, op, rd, got.mass, want.mass)
				}
			}
		}
		// The bounds must decide most cells, or the floor samples as before.
		g.eachCell(func(flat int, idx []int) {
			llo, lhi := axes[0].bounds(idx[0])
			rlo, rhi := axes[1].bounds(idx[1])
			if compareBounds(region.LT, llo, lhi, rlo, rhi) != cellCut {
				decided++
			}
		})
	}
	if decided == 0 {
		t.Fatal("no cell was decided by its bounds")
	}
}

// TestFloorCompareMatchesFloorWhere: the package-level entry point gives
// every family FloorWhere's answer, through the Grid route (symbolic and
// mixed products) and the Discrete one.
func TestFloorCompareMatchesFloorWhere(t *testing.T) {
	joints := []Dist{
		ProductOf(NewGaussianVar(30, 4), NewUniform(27, 33)),
		ProductOf(NewUniform(0, 10), NewUniform(5, 15)),
		ProductOf(NewGaussianVar(5, 1).Floor(0, region.Compare(region.GT, 5)), NewDiscrete([]float64{4, 5, 6}, []float64{0.25, 0.5, 0.125})),
		ProductOf(NewDiscrete([]float64{1, 2, 3}, []float64{0.2, 0.3, 0.5}), NewDiscrete([]float64{2, 3}, []float64{0.5, 0.25})),
		ProductOf(NewGaussianVar(30, 4), Unit(31)),
	}
	for _, d := range joints {
		for _, op := range []region.Op{region.LT, region.LE, region.GT, region.GE, region.EQ, region.NE} {
			want := d.FloorWhere(func(x []float64) bool { return op.Eval(x[0], x[1]) })
			got := FloorCompare(d, 0, 1, op)
			if math.Float64bits(got.Mass()) != math.Float64bits(want.Mass()) || got.String() != want.String() {
				t.Errorf("%v, x0 %v x1: FloorCompare %v, FloorWhere %v", d, op, got, want)
			}
			if wg, ok := want.(*Grid); ok {
				gg := got.(*Grid)
				for i := range wg.w {
					if math.Float64bits(gg.w[i]) != math.Float64bits(wg.w[i]) {
						t.Fatalf("%v, x0 %v x1, cell %d: %v, want %v", d, op, i, gg.w[i], wg.w[i])
					}
				}
			}
		}
	}
}
