package colpdf

import (
	"math"
	"math/rand"
	"testing"

	"probdb/internal/dist"
	"probdb/internal/region"
)

// mixedDists builds a batch covering every family the encoder knows plus the
// fallback slot: runs of Gaussians, Uniforms, Exponentials, dictionary-shared
// Poissons and Geometrics, shared grids, odd distributions (triangular,
// floored) that only evaluate through the per-tuple interface, and a generic
// discrete sampling in the point lane.
func mixedDists() []dist.Dist {
	sharedGrid := dist.NewHistogram([]float64{0, 1, 2, 4}, []float64{0.2, 0.5, 0.3})
	ds := []dist.Dist{
		dist.NewGaussian(20, 5),
		dist.NewGaussian(20, 5), // repeats the previous parameters (memo path)
		dist.NewGaussian(-3, 0.5),
		dist.NewUniform(0, 10),
		dist.NewUniform(-2, 2),
		dist.NewExponential(0.7),
		dist.NewExponential(1.3),
		dist.NewPoisson(4),
		dist.NewPoisson(7),
		dist.NewPoisson(4), // dictionary shares the lambda=4 slot
		dist.NewGeometric(0.25),
		dist.NewGeometric(0.25),
		sharedGrid,
		sharedGrid, // dictionary shares the grid pointer
		dist.NewHistogram([]float64{-1, 0, 1}, []float64{0.5, 0.5}),
		dist.NewTriangular(0, 2, 6),
		dist.NewGaussian(20, 5).Floor(0, region.Compare(region.LT, 18)),
		dist.NewDiscrete([]float64{1, 2, 3}, []float64{0.2, 0.3, 0.5}),
	}
	return ds
}

// scalarMass is the per-tuple reference the kernels must match bit for bit:
// Table.DistOf's marginal reduction followed by MassIn over the interval box.
func scalarMass(d dist.Dist, dim int, iv region.Interval) float64 {
	if d.Dim() != 1 {
		d = d.Marginal([]int{dim})
	}
	return d.MassIn(region.Box{iv})
}

// cornerIntervals exercises the interval semantics the kernels transcribe:
// empty and reversed intervals, point queries, half-lines, infinite bounds,
// and NaN endpoints.
func cornerIntervals() []region.Interval {
	inf := math.Inf(1)
	nan := math.NaN()
	return []region.Interval{
		region.Closed(-1, 3),
		region.Closed(15, 25),
		region.Closed(3, -1), // reversed → empty
		region.Open(2, 2),    // empty
		region.Point(2),
		region.Point(4), // exact Poisson support point
		region.Below(0.5, false),
		region.Below(0.5, true),
		region.Above(1, false),
		region.Above(1, true),
		region.Closed(-inf, inf),
		region.Closed(-inf, 1.5),
		region.Closed(1.5, inf),
		{Lo: nan, Hi: 2},
		{Lo: nan, Hi: nan},
		region.Closed(-1e300, 1e300),
	}
}

func TestEncodeRunStructure(t *testing.T) {
	ds := mixedDists()
	b := Encode(ds, 0, nil)
	if b.Len() != len(ds) {
		t.Fatalf("Len = %d, want %d", b.Len(), len(ds))
	}
	wantFams := []Family{FamGaussian, FamUniform, FamExponential, FamPoisson,
		FamGeometric, FamGrid, FamFallback, FamDiscrete}
	if b.NumRuns() != len(wantFams) {
		t.Fatalf("NumRuns = %d, want %d", b.NumRuns(), len(wantFams))
	}
	covered := 0
	for i, want := range wantFams {
		r := b.RunAt(i)
		if r.Fam != want {
			t.Errorf("run %d family = %v, want %v", i, r.Fam, want)
		}
		if r.Start != covered {
			t.Errorf("run %d starts at %d, want %d", i, r.Start, covered)
		}
		covered += r.N
	}
	if covered != len(ds) {
		t.Fatalf("runs cover %d of %d tuples", covered, len(ds))
	}
	// The Poisson dictionary shares the repeated lambda=4 slot.
	pois := b.RunAt(3)
	if len(pois.Pts) != 2 || pois.DictIdx[0] != pois.DictIdx[2] {
		t.Errorf("poisson dictionary not shared: %d slots, idx=%v", len(pois.Pts), pois.DictIdx)
	}
	// The grid dictionary shares by pointer identity.
	grid := b.RunAt(5)
	if len(grid.Grids) != 2 || grid.DictIdx[0] != grid.DictIdx[1] {
		t.Errorf("grid dictionary not shared: %d slots, idx=%v", len(grid.Grids), grid.DictIdx)
	}
	// The existence-mass lane equals each distribution's own mass bitwise.
	for i, d := range ds {
		if math.Float64bits(b.Mass()[i]) != math.Float64bits(d.Mass()) {
			t.Errorf("mass[%d] = %v, want %v", i, b.Mass()[i], d.Mass())
		}
	}
}

// TestKernelDifferentialScalar is the bit-exactness contract: every batch
// kernel output equals the scalar per-tuple reference via Float64bits — not
// approximately, identically — across families, fallback, and interval
// corner cases.
func TestKernelDifferentialScalar(t *testing.T) {
	ds := mixedDists()
	b := Encode(ds, 0, nil)
	n := len(ds)
	for _, iv := range cornerIntervals() {
		out := make([]float64, n)
		b.EvalInterval(iv, out)
		for i, d := range ds {
			want := scalarMass(d, 0, iv)
			if math.Float64bits(out[i]) != math.Float64bits(want) {
				t.Errorf("iv=%v tuple %d (%s): vec %v != scalar %v", iv, i, d, out[i], want)
			}
		}
	}
}

// TestKernelDifferentialSplits proves that MassIntervalVec over any split of
// the block is bit-identical to the whole-block evaluation: per-element
// results must not depend on where range boundaries fall (memo reuse
// included).
func TestKernelDifferentialSplits(t *testing.T) {
	ds := mixedDists()
	b := Encode(ds, 0, nil)
	n := len(ds)
	iv := region.Closed(0.5, 5)
	whole := make([]float64, n)
	b.EvalInterval(iv, whole)
	for _, step := range []int{1, 2, 3, 5, n} {
		got := make([]float64, n)
		for from := 0; from < n; from += step {
			to := min(from+step, n)
			b.MassIntervalVec(from, to, iv.Lo, iv.Hi, got[from:to])
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(whole[i]) {
				t.Errorf("step %d tuple %d: %v != %v", step, i, got[i], whole[i])
			}
		}
	}
	// Per-run evaluation covers the same contract for the pending-mass
	// driver, which evaluates the runs of some families only.
	got := make([]float64, n)
	for r := 0; r < b.NumRuns(); r++ {
		b.EvalIntervalRun(r, iv, got)
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(whole[i]) {
			t.Errorf("per-run tuple %d: %v != %v", i, got[i], whole[i])
		}
	}
}

func TestBatchFormsMatchScalar(t *testing.T) {
	ds := mixedDists()
	b := Encode(ds, 0, nil)
	n := len(ds)

	out := make([]float64, n)
	b.MassIntervalVec(0, n, 1, 8, out)
	for i, d := range ds {
		want := scalarMass(d, 0, region.Closed(1, 8))
		if math.Float64bits(out[i]) != math.Float64bits(want) {
			t.Errorf("MassIntervalVec[%d]: %v != %v", i, out[i], want)
		}
	}

	b.CDFVec(2.5, out)
	for i, d := range ds {
		want := scalarMass(d, 0, region.Below(2.5, false))
		if math.Float64bits(out[i]) != math.Float64bits(want) {
			t.Errorf("CDFVec[%d]: %v != %v", i, out[i], want)
		}
	}

	b.MassInBoxVec(0, n, region.Box{region.Open(0, 3)}, out)
	for i, d := range ds {
		want := scalarMass(d, 0, region.Open(0, 3))
		if math.Float64bits(out[i]) != math.Float64bits(want) {
			t.Errorf("MassInBoxVec[%d]: %v != %v", i, out[i], want)
		}
	}

	b.MassVec(3, 9, out[:6])
	for i := 0; i < 6; i++ {
		if math.Float64bits(out[i]) != math.Float64bits(ds[3+i].Mass()) {
			t.Errorf("MassVec[%d]: %v != %v", i, out[i], ds[3+i].Mass())
		}
	}
}

// TestFallbackMarginalReduction pins the multi-dimensional fallback path: a
// joint pdf reduces to the block's marginal dimension exactly as the scalar
// DistOf path does.
func TestFallbackMarginalReduction(t *testing.T) {
	mg, err := dist.NewMultiGaussian([]float64{1, 5}, [][]float64{{2, 0.3}, {0.3, 1}})
	if err != nil {
		t.Fatal(err)
	}
	for dim := 0; dim < 2; dim++ {
		b := Encode([]dist.Dist{mg, mg}, dim, nil)
		if b.Dim() != dim {
			t.Fatalf("Dim = %d, want %d", b.Dim(), dim)
		}
		if b.NumRuns() != 1 || b.RunAt(0).Fam != FamFallback {
			t.Fatalf("joint pdf should land in a fallback run")
		}
		iv := region.Closed(0, 4)
		out := make([]float64, 2)
		b.EvalInterval(iv, out)
		want := scalarMass(mg, dim, iv)
		for i := range out {
			if math.Float64bits(out[i]) != math.Float64bits(want) {
				t.Errorf("dim %d tuple %d: %v != %v", dim, i, out[i], want)
			}
		}
	}
}

func TestStatsAndFamilyNames(t *testing.T) {
	ds := mixedDists()
	b := Encode(ds, 0, nil)
	s := b.Stats()
	if s.Fallback != 2 {
		t.Errorf("Fallback = %d, want 2", s.Fallback)
	}
	if s.Vec != b.Len()-2 {
		t.Errorf("Vec = %d, want %d", s.Vec, b.Len()-2)
	}
	if s.Runs != b.NumRuns() {
		t.Errorf("Runs = %d, want %d", s.Runs, b.NumRuns())
	}
	names := FamilyNames(s.FamMask)
	want := []string{"fallback", "gaussian", "uniform", "exponential", "poisson", "geometric", "grid", "discrete"}
	if len(names) != len(want) {
		t.Fatalf("FamilyNames = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("FamilyNames = %v, want %v", names, want)
		}
	}
	// A block of the Gaussian run's rows only.
	s = Encode(ds[:3], 0, nil).Stats()
	if s.Vec != 3 || s.Fallback != 0 || s.Runs != 1 || s.FamMask != 1<<FamGaussian {
		t.Errorf("gaussian block stats = %+v", s)
	}
	if got := Encode(nil, 0, nil).Stats(); got != (RangeStats{}) {
		t.Errorf("empty block stats = %+v", got)
	}
}

// TestEncodeOverflowParamsStayScalar: parameters outside the dist decoder's
// enumeration limits are not dictionary-encoded — they fall back to
// per-tuple evaluation.
func TestEncodeOverflowParamsStayScalar(t *testing.T) {
	// A geometric p below minGeomP is not even constructible (enumeration
	// overflows first), so the oversized lambda is the reachable case.
	ds := []dist.Dist{
		dist.NewPoisson(2e4), // lambda above maxLambda
		dist.NewPoisson(2e4),
	}
	b := Encode(ds, 0, nil)
	for r := 0; r < b.NumRuns(); r++ {
		if fam := b.RunAt(r).Fam; fam != FamFallback {
			t.Errorf("run %d family = %v, want fallback", r, fam)
		}
	}
	iv := region.Closed(0, 1e5)
	out := make([]float64, len(ds))
	b.EvalInterval(iv, out)
	for i, d := range ds {
		want := scalarMass(d, 0, iv)
		if math.Float64bits(out[i]) != math.Float64bits(want) {
			t.Errorf("tuple %d: %v != %v", i, out[i], want)
		}
	}
}

func TestEncodeExplicitMassLane(t *testing.T) {
	ds := []dist.Dist{dist.NewGaussian(0, 1), dist.NewUniform(0, 1)}
	mass := []float64{0.25, 0.75}
	b := Encode(ds, 0, mass)
	mass[0] = 0.99 // the block must have copied the lane
	if b.Mass()[0] != 0.25 || b.Mass()[1] != 0.75 {
		t.Errorf("mass lane = %v", b.Mass())
	}
	if b.MemCost() <= 0 {
		t.Errorf("MemCost = %d", b.MemCost())
	}
}

// benchMix draws n pdfs in the end-to-end benchmark's family mix: 60 %
// Gaussian, 20 % Uniform, 10 % full and 10 % partial three-point discrete
// samplings.
func benchMix(rng *rand.Rand, n int) []dist.Dist {
	ds := make([]dist.Dist, n)
	for i := range ds {
		m := 20 + 60*rng.Float64()
		switch u := rng.Float64(); {
		case u < 0.6:
			ds[i] = dist.NewGaussian(m, 2+4*rng.Float64())
		case u < 0.8:
			w := 1 + 9*rng.Float64()
			ds[i] = dist.NewUniform(m-w, m+w)
		default:
			ps := []float64{0.25, 0.5, 0.25}
			if u >= 0.9 {
				ps = []float64{0.25, 0.25, 0.125}
			}
			ds[i] = dist.NewDiscrete([]float64{m - 1, m, m + 1}, ps)
		}
	}
	return ds
}

// TestEncodeAllocsDoNotScaleWithRuns: the lanes are block-wide, so a
// 256-row block whose family changes on every row — 256 runs over the
// closed-form families and discrete samplings — allocates at most a small
// constant more than a block of one Gaussian run.
func TestEncodeAllocsDoNotScaleWithRuns(t *testing.T) {
	const n = 256
	one := make([]dist.Dist, n)
	mixed := make([]dist.Dist, n)
	for i := range mixed {
		x := float64(i)
		one[i] = dist.NewGaussian(x, 1)
		switch i % 4 {
		case 0:
			mixed[i] = dist.NewGaussian(x, 1)
		case 1:
			mixed[i] = dist.NewUniform(x, x+2)
		case 2:
			mixed[i] = dist.NewExponential(1 + x)
		default:
			mixed[i] = dist.NewDiscrete([]float64{x, x + 1}, []float64{0.5, 0.25})
		}
	}
	if runs := Encode(mixed, 0, nil).NumRuns(); runs != n {
		t.Fatalf("mixed block has %d runs, want %d", runs, n)
	}
	base := testing.AllocsPerRun(20, func() { Encode(one, 0, nil) })
	got := testing.AllocsPerRun(20, func() { Encode(mixed, 0, nil) })
	if got > base+2 {
		t.Fatalf("256 runs cost %v allocations, one run %v", got, base)
	}
}

// TestEvalGridAllocs: a grid run's masses memoize per dictionary slot in
// one stack scratch lane — no allocation for a dictionary of up to 64 grids,
// one beyond that — and equal the scalar path bit for bit either way.
func TestEvalGridAllocs(t *testing.T) {
	const n = 256
	for _, c := range []struct {
		grids  int
		allocs float64
	}{{3, 0}, {64, 0}, {100, 1}} {
		shared := make([]dist.Dist, c.grids)
		for g := range shared {
			x := float64(g)
			shared[g] = dist.NewHistogram([]float64{x, x + 1, x + 3}, []float64{0.4, 0.6})
		}
		ds := make([]dist.Dist, n)
		for i := range ds {
			ds[i] = shared[i%c.grids]
		}
		b := Encode(ds, 0, nil)
		if b.NumRuns() != 1 || b.RunAt(0).Fam != FamGrid || len(b.RunAt(0).Grids) != c.grids {
			t.Fatalf("%d grids: want one grid run over a %d-slot dictionary", c.grids, c.grids)
		}
		iv := region.Closed(10.5, 40)
		out := make([]float64, n)
		if got := testing.AllocsPerRun(20, func() { b.EvalInterval(iv, out) }); got != c.allocs {
			t.Errorf("%d grids: %v allocations per evaluation, want %v", c.grids, got, c.allocs)
		}
		for i, d := range ds {
			if want := scalarMass(d, 0, iv); math.Float64bits(out[i]) != math.Float64bits(want) {
				t.Fatalf("%d grids: row %d mass %v, scalar %v", c.grids, i, out[i], want)
			}
		}
	}
}

// encoded keeps BenchmarkEncode's result live.
var encoded *Block

// BenchmarkEncode encodes 256-row blocks of the end-to-end benchmark's
// family mix.
func BenchmarkEncode(b *testing.B) {
	ds := benchMix(rand.New(rand.NewSource(1)), 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for from := 0; from < len(ds); from += 256 {
			encoded = Encode(ds[from:from+256], 0, nil)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ds)), "ns/tuple")
}
