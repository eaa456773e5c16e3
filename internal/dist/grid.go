package dist

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"probdb/internal/numeric"
	"probdb/internal/region"
)

// Axis describes one dimension of a Grid: either a continuous bucketing
// (Edges, one more entry than cells, strictly increasing — the paper's
// histogram buckets) or an explicit list of discrete point values (Values,
// strictly increasing).
type Axis struct {
	Kind   Kind
	Edges  []float64 // Continuous axes: cell i spans [Edges[i], Edges[i+1])
	Values []float64 // Discrete axes: cell i is the point Values[i]
}

// Cells returns the number of cells along the axis.
func (a Axis) Cells() int {
	if a.Kind == KindContinuous {
		return len(a.Edges) - 1
	}
	return len(a.Values)
}

// locate returns the cell index containing x, or -1 when x is outside the
// axis. The last continuous cell is closed on both sides.
func (a Axis) locate(x float64) int {
	if a.Kind == KindContinuous {
		if x < a.Edges[0] || x > a.Edges[len(a.Edges)-1] {
			return -1
		}
		i := sort.SearchFloat64s(a.Edges, x) // first edge >= x
		if i < len(a.Edges) && a.Edges[i] == x {
			if i == len(a.Edges)-1 {
				return i - 1 // top edge belongs to the last cell
			}
			return i
		}
		return i - 1
	}
	i := sort.SearchFloat64s(a.Values, x)
	if i < len(a.Values) && a.Values[i] == x {
		return i
	}
	return -1
}

// width returns the width of cell i (0 for discrete axes).
func (a Axis) width(i int) float64 {
	if a.Kind == KindContinuous {
		return a.Edges[i+1] - a.Edges[i]
	}
	return 0
}

// bounds returns the closed range of coordinates cell i covers: its two
// edges, or its point value twice.
func (a Axis) bounds(i int) (lo, hi float64) {
	if a.Kind == KindContinuous {
		return a.Edges[i], a.Edges[i+1]
	}
	return a.Values[i], a.Values[i]
}

// center returns the representative coordinate of cell i.
func (a Axis) center(i int) float64 {
	if a.Kind == KindContinuous {
		return (a.Edges[i] + a.Edges[i+1]) / 2
	}
	return a.Values[i]
}

// validate is the HISTOGRAM rule for one axis.
func (a Axis) validate() error {
	switch a.Kind {
	case KindContinuous:
		if len(a.Edges) < 2 {
			return &ParamError{"HISTOGRAM", "edge count", float64(len(a.Edges)), "must be at least 2"}
		}
		for i := 1; i < len(a.Edges); i++ {
			// A cell's width is what its density and CDF divide by.
			if w := a.Edges[i] - a.Edges[i-1]; !(w > 0) || math.IsInf(w, 0) {
				return &ParamError{"HISTOGRAM", "edge", a.Edges[i], "must be above the edge before it, by a finite width"}
			}
		}
	case KindDiscrete:
		if len(a.Values) == 0 {
			return &ParamError{"HISTOGRAM", "value count", 0, "must be at least 1"}
		}
		for i, v := range a.Values {
			if !finite(v) {
				return &ParamError{"HISTOGRAM", "value", v, "must be finite"}
			}
			if i > 0 && !(v > a.Values[i-1]) {
				return &ParamError{"HISTOGRAM", "value", v, "must be above the value before it"}
			}
		}
	default:
		return &ParamError{"HISTOGRAM", "axis kind", float64(a.Kind), "must be Continuous or Discrete"}
	}
	return nil
}

// Grid is a k-dimensional, kind-aware histogram storing probability mass per
// cell. It is the generic representation every other distribution collapses
// to when an operation leaves its closed-form family: the paper's Histogram
// for continuous data, and the exact product space for mixed
// discrete×continuous joints. Weights are mass (not density); At converts to
// density across the continuous dimensions of a cell.
type Grid struct {
	axes []Axis
	w    []float64 // row-major cell masses
	mass float64

	// cum holds the cumulative masses Sample searches, built by the first
	// Sample: a grid an operator produces is rarely sampled, and a running
	// sum per cell would double what it costs to hold.
	cumOnce sync.Once
	cum     []float64
}

var _ Dist = (*Grid)(nil)

// NewGrid builds a grid over the given axes with the given per-cell masses
// in row-major order (last axis fastest). It panics with a *ParamError on
// malformed axes, negative weights, weight-count mismatch, or total mass
// beyond 1.
func NewGrid(axes []Axis, weights []float64) *Grid { return must(buildGrid(axes, weights)) }

func buildGrid(axes []Axis, weights []float64) (*Grid, error) {
	if len(axes) == 0 {
		return nil, &ParamError{"HISTOGRAM", "axis count", 0, "must be at least 1"}
	}
	n := 1
	for _, a := range axes {
		if err := a.validate(); err != nil {
			return nil, err
		}
		n *= a.Cells()
	}
	if len(weights) != n {
		return nil, &ParamError{"HISTOGRAM", "mass count", float64(len(weights)), fmt.Sprintf("must be %d, one per cell", n)}
	}
	return newGrid(append([]Axis(nil), axes...), append([]float64(nil), weights...))
}

// newGrid is NewGrid for a caller inside the package that hands over axes
// it took from a grid (or checked) and a weight slice nothing else holds:
// neither is copied. It clamps the tiny negative drift of the kernels to 0
// before checkedGrid.
func newGrid(axes []Axis, w []float64) (*Grid, error) {
	for i, v := range w {
		if v < 0 && v > -1e-12 {
			w[i] = 0
		}
	}
	return checkedGrid(axes, w)
}

// checkedGrid returns the grid of axes and w, or a *ParamError where a
// weight or the total mass breaks the HISTOGRAM rule. It tolerates no
// negative weight, so every grid encoding the decoder accepts through it
// re-encodes to the same bytes.
func checkedGrid(axes []Axis, w []float64) (*Grid, error) {
	var mass numeric.KahanSum
	for _, v := range w {
		if err := checkProb("HISTOGRAM", v); err != nil {
			return nil, err
		}
		mass.Add(v)
	}
	total := mass.Value()
	if err := checkMass("HISTOGRAM", total); err != nil {
		return nil, err
	}
	return &Grid{axes: axes, w: w, mass: numeric.Clamp01(total)}, nil
}

// NewHistogram builds the paper's 1-D histogram representation: bucket
// boundaries in edges and probability mass per bucket. BuildHistogram
// returns the *ParamError NewHistogram panics with.
func NewHistogram(edges, masses []float64) *Grid { return must(BuildHistogram(edges, masses)) }

func BuildHistogram(edges, masses []float64) (*Grid, error) {
	return buildGrid([]Axis{{Kind: KindContinuous, Edges: edges}}, masses)
}

// Axes returns the grid's axes. The returned slice must not be modified.
func (g *Grid) Axes() []Axis { return g.axes }

// Weights returns the per-cell masses in row-major order. The returned
// slice must not be modified.
func (g *Grid) Weights() []float64 { return g.w }

func (g *Grid) Dim() int { return len(g.axes) }

func (g *Grid) DimKind(i int) Kind {
	checkDim(i, len(g.axes))
	return g.axes[i].Kind
}

func (g *Grid) Mass() float64 { return g.mass }

// eachCell invokes fn for every cell with its flat index and per-axis
// indices. idx is reused between calls.
func (g *Grid) eachCell(fn func(flat int, idx []int)) {
	idx := make([]int, len(g.axes))
	for flat := range g.w {
		fn(flat, idx)
		for d := len(idx) - 1; d >= 0; d-- {
			idx[d]++
			if idx[d] < g.axes[d].Cells() {
				break
			}
			idx[d] = 0
		}
	}
}

func (g *Grid) At(x []float64) float64 {
	if len(x) != len(g.axes) {
		panic("dist: At dimensionality mismatch")
	}
	flat := 0
	vol := 1.0
	for d, a := range g.axes {
		i := a.locate(x[d])
		if i < 0 {
			return 0
		}
		flat = flat*a.Cells() + i
		if a.Kind == KindContinuous {
			vol *= a.width(i)
		}
	}
	return g.w[flat] / vol
}

func (g *Grid) MassIn(b region.Box) float64 {
	if len(b) != len(g.axes) {
		panic("dist: MassIn box dimensionality mismatch")
	}
	if len(g.axes) == 1 {
		return g.massIv(b[0])
	}
	// Per-axis inclusion fraction of every cell.
	fr := make([][]float64, len(g.axes))
	for d, a := range g.axes {
		fr[d] = make([]float64, a.Cells())
		for i := range fr[d] {
			fr[d][i] = cellFraction(a, i, b[d])
		}
	}
	var s numeric.KahanSum
	g.eachCell(func(flat int, idx []int) {
		if g.w[flat] == 0 {
			return
		}
		f := g.w[flat]
		for d := range idx {
			f *= fr[d][idx[d]]
			if f == 0 {
				return
			}
		}
		s.Add(f)
	})
	return numeric.Clamp01(s.Value())
}

// massIv is MassIn of a one-dimensional Grid: the same weight × fraction
// products summed in the same order, without the per-axis fraction table.
func (g *Grid) massIv(iv region.Interval) float64 {
	a := g.axes[0]
	var s numeric.KahanSum
	for i, w := range g.w {
		if w == 0 {
			continue
		}
		if f := w * cellFraction(a, i, iv); f != 0 {
			s.Add(f)
		}
	}
	return numeric.Clamp01(s.Value())
}

// cellFraction returns the fraction of cell i of axis a lying inside iv
// (mass is uniform within a continuous cell, so length fraction = mass
// fraction).
func cellFraction(a Axis, i int, iv region.Interval) float64 {
	if a.Kind == KindDiscrete {
		if iv.Contains(a.Values[i]) {
			return 1
		}
		return 0
	}
	lo, hi := a.Edges[i], a.Edges[i+1]
	clipLo, clipHi := math.Max(lo, iv.Lo), math.Min(hi, iv.Hi)
	if clipHi <= clipLo {
		return 0
	}
	return (clipHi - clipLo) / (hi - lo)
}

func (g *Grid) MassWhere(pred func([]float64) bool) float64 {
	var s numeric.KahanSum
	x := make([]float64, len(g.axes))
	g.eachCell(func(flat int, idx []int) {
		if g.w[flat] == 0 {
			return
		}
		s.Add(g.w[flat] * g.cellSatisfiedFraction(idx, x, pred))
	})
	return numeric.Clamp01(s.Value())
}

// cellSatisfiedFraction estimates the fraction of a cell's mass where pred
// holds: exact for all-discrete cells, a CellSamples^k midpoint subsample
// across the continuous dimensions otherwise. x is scratch space.
func (g *Grid) cellSatisfiedFraction(idx []int, x []float64, pred func([]float64) bool) float64 {
	contDims := make([]int, 0, len(g.axes))
	for d, a := range g.axes {
		if a.Kind == KindContinuous {
			contDims = append(contDims, d)
		} else {
			x[d] = a.Values[idx[d]]
		}
	}
	if len(contDims) == 0 {
		if pred(x) {
			return 1
		}
		return 0
	}
	n := DefaultOptions.CellSamples
	total := 1
	for range contDims {
		total *= n
	}
	sub := make([]int, len(contDims))
	hit := 0
	for c := 0; c < total; c++ {
		for j, d := range contDims {
			a := g.axes[d]
			lo := a.Edges[idx[d]]
			w := a.width(idx[d])
			x[d] = lo + (float64(sub[j])+0.5)/float64(n)*w
		}
		if pred(x) {
			hit++
		}
		for j := len(sub) - 1; j >= 0; j-- {
			sub[j]++
			if sub[j] < n {
				break
			}
			sub[j] = 0
		}
	}
	return float64(hit) / float64(total)
}

func (g *Grid) Marginal(keep []int) Dist {
	checkKeep(keep, len(g.axes))
	if identityKeep(keep, len(g.axes)) {
		return g
	}
	axes := make([]Axis, len(keep))
	for j, k := range keep {
		axes[j] = g.axes[k]
	}
	n := 1
	for _, a := range axes {
		n *= a.Cells()
	}
	w := make([]float64, n)
	g.eachCell(func(flat int, idx []int) {
		if g.w[flat] == 0 {
			return
		}
		out := 0
		for _, k := range keep {
			out = out*g.axes[k].Cells() + idx[k]
		}
		w[out] += g.w[flat]
	})
	return NewGrid(axes, w)
}

// Floor applies a rectangular floor along one dimension. Continuous axes
// are refined at the region boundaries first, so the result is exact (each
// refined cell lies entirely inside or outside keep).
func (g *Grid) Floor(dim int, keep region.Set) Dist {
	checkDim(dim, len(g.axes))
	ref := g
	if g.axes[dim].Kind == KindContinuous {
		cuts := boundaryPoints(keep, g.axes[dim].Edges[0], g.axes[dim].Edges[len(g.axes[dim].Edges)-1])
		ref = g.refineAxis(dim, cuts)
	}
	a := ref.axes[dim]
	zero := make([]bool, a.Cells())
	for i := range zero {
		if a.Kind == KindDiscrete {
			zero[i] = !keep.Contains(a.Values[i])
		} else {
			// Test the midpoint: after refinement no region boundary lies
			// strictly inside the cell.
			zero[i] = !keep.Contains(a.center(i))
		}
	}
	w := make([]float64, len(ref.w))
	copy(w, ref.w)
	ref.eachCell(func(flat int, idx []int) {
		if zero[idx[dim]] {
			w[flat] = 0
		}
	})
	return NewGrid(ref.axes, w)
}

// boundaryPoints collects the finite region endpoints inside (lo, hi).
func boundaryPoints(s region.Set, lo, hi float64) []float64 {
	var pts []float64
	for _, iv := range s.Intervals() {
		for _, v := range [2]float64{iv.Lo, iv.Hi} {
			if v > lo && v < hi && !math.IsInf(v, 0) {
				pts = append(pts, v)
			}
		}
	}
	sort.Float64s(pts)
	return pts
}

// refineAxis splits the cells of a continuous axis at the given cut points,
// distributing mass proportionally to sub-width.
func (g *Grid) refineAxis(dim int, cuts []float64) *Grid {
	if len(cuts) == 0 {
		return g
	}
	old := g.axes[dim]
	edges := make([]float64, 0, len(old.Edges)+len(cuts))
	edges = append(edges, old.Edges...)
	edges = append(edges, cuts...)
	sort.Float64s(edges)
	// Dedupe.
	uniq := edges[:1]
	for _, e := range edges[1:] {
		if e != uniq[len(uniq)-1] {
			uniq = append(uniq, e)
		}
	}
	newAxis := Axis{Kind: KindContinuous, Edges: uniq}
	// Map new cells to old cells and width fractions.
	oldIdx := make([]int, newAxis.Cells())
	frac := make([]float64, newAxis.Cells())
	for i := 0; i < newAxis.Cells(); i++ {
		mid := newAxis.center(i)
		oi := old.locate(mid)
		oldIdx[i] = oi
		frac[i] = newAxis.width(i) / old.width(oi)
	}
	axes := make([]Axis, len(g.axes))
	copy(axes, g.axes)
	axes[dim] = newAxis
	n := 1
	for _, a := range axes {
		n *= a.Cells()
	}
	w := make([]float64, n)
	strideNew := make([]int, len(axes))
	acc := 1
	for i := len(axes) - 1; i >= 0; i-- {
		strideNew[i] = acc
		acc *= axes[i].Cells()
	}
	g.eachCell(func(flat int, idx []int) {
		if g.w[flat] == 0 {
			return
		}
		// Distribute this old cell's mass across the new cells along dim.
		baseFlat := 0
		for d := range idx {
			if d != dim {
				baseFlat += idx[d] * strideNew[d]
			}
		}
		for ni := 0; ni < newAxis.Cells(); ni++ {
			if oldIdx[ni] != idx[dim] {
				continue
			}
			w[baseFlat+ni*strideNew[dim]] += g.w[flat] * frac[ni]
		}
	})
	return NewGrid(axes, w)
}

// FloorWhere scales each cell's mass by the fraction of the cell satisfying
// pred (exact for all-discrete cells, subsampled otherwise). The axes are
// unchanged.
func (g *Grid) FloorWhere(pred func([]float64) bool) Dist {
	w := make([]float64, len(g.w))
	x := make([]float64, len(g.axes))
	g.eachCell(func(flat int, idx []int) {
		if g.w[flat] == 0 {
			return
		}
		w[flat] = g.w[flat] * g.cellSatisfiedFraction(idx, x, pred)
	})
	return must(newGrid(g.axes, w))
}

// FloorCompare is FloorWhere for the predicate "x[ldim] op x[rdim]" — the
// floor of a comparison between two attributes of one joint (§III-C case
// 2b). For the four ordering operators a cell's bounds along the two axes
// decide the comparison for the whole cell unless they overlap, so a cell on
// one side of the diagonal keeps its mass and one on the other side loses it
// without being sampled; only the cells the comparison cuts (and every cell
// under = and <>) are subsampled, exactly as FloorWhere does it. The weights
// are bit-identical to FloorWhere's: its sample points lie within the cell's
// closed bounds, so where the bounds decide, all of them agree and the
// sampled fraction is exactly 1 or 0.
func (g *Grid) FloorCompare(ldim, rdim int, op region.Op) Dist {
	checkDim(ldim, len(g.axes))
	checkDim(rdim, len(g.axes))
	pred := func(x []float64) bool { return op.Eval(x[ldim], x[rdim]) }
	la, ra := g.axes[ldim], g.axes[rdim]
	w := make([]float64, len(g.w))
	x := make([]float64, len(g.axes))
	g.eachCell(func(flat int, idx []int) {
		if g.w[flat] == 0 {
			return
		}
		llo, lhi := la.bounds(idx[ldim])
		rlo, rhi := ra.bounds(idx[rdim])
		switch compareBounds(op, llo, lhi, rlo, rhi) {
		case cellInside:
			w[flat] = g.w[flat]
		case cellCut:
			w[flat] = g.w[flat] * g.cellSatisfiedFraction(idx, x, pred)
		}
	})
	return must(newGrid(g.axes, w))
}

// FloorCompare floors d where "x[ldim] op x[rdim]" is false. It is
// d.FloorWhere with that predicate — every distribution leaves its closed
// form for such a floor by collapsing first — except that a joint which
// collapses to a Grid is floored by Grid.FloorCompare, cell bounds first.
func FloorCompare(d Dist, ldim, rdim int, op region.Op) Dist {
	c := Collapse(d, DefaultOptions)
	if g, ok := c.(*Grid); ok {
		return g.FloorCompare(ldim, rdim, op)
	}
	return c.FloorWhere(func(x []float64) bool { return op.Eval(x[ldim], x[rdim]) })
}

// cellSide says where a cell lies relative to a comparison's region.
type cellSide int

const (
	cellCut     cellSide = iota // the bounds do not decide: sample the cell
	cellInside                  // every point of the cell satisfies it
	cellOutside                 // no point of the cell satisfies it
)

// compareBounds decides "l op r" for every l in [llo, lhi] and r in
// [rlo, rhi] at once, when the two ranges allow it.
func compareBounds(op region.Op, llo, lhi, rlo, rhi float64) cellSide {
	switch op {
	case region.GT, region.GE: // l > r is r < l
		op, llo, lhi, rlo, rhi = op.Flip(), rlo, rhi, llo, lhi
	}
	switch {
	case op == region.LT && lhi < rlo, op == region.LE && lhi <= rlo:
		return cellInside
	case op == region.LT && llo >= rhi, op == region.LE && llo > rhi:
		return cellOutside
	}
	return cellCut
}

func (g *Grid) Support() region.Box {
	b := make(region.Box, len(g.axes))
	for d, a := range g.axes {
		b[d] = a.span()
	}
	return b
}

// supportIv is Support()[0] of a one-dimensional Grid.
func (g *Grid) supportIv() region.Interval { return g.axes[0].span() }

// span returns the closed range of coordinates the axis covers.
func (a Axis) span() region.Interval {
	if a.Kind == KindContinuous {
		return region.Closed(a.Edges[0], a.Edges[len(a.Edges)-1])
	}
	return region.Closed(a.Values[0], a.Values[len(a.Values)-1])
}

func (g *Grid) Mean(dim int) float64 {
	checkDim(dim, len(g.axes))
	if g.mass == 0 {
		return math.NaN()
	}
	a := g.axes[dim]
	var s numeric.KahanSum
	g.eachCell(func(flat int, idx []int) {
		if g.w[flat] != 0 {
			s.Add(g.w[flat] * a.center(idx[dim]))
		}
	})
	return s.Value() / g.mass
}

func (g *Grid) Variance(dim int) float64 {
	checkDim(dim, len(g.axes))
	if g.mass == 0 {
		return math.NaN()
	}
	a := g.axes[dim]
	mu := g.Mean(dim)
	var s numeric.KahanSum
	g.eachCell(func(flat int, idx []int) {
		if g.w[flat] == 0 {
			return
		}
		c := a.center(idx[dim])
		d := c - mu
		v := d * d
		if a.Kind == KindContinuous {
			wdt := a.width(idx[dim])
			v += wdt * wdt / 12 // uniform-within-cell second moment
		}
		s.Add(g.w[flat] * v)
	})
	return s.Value() / g.mass
}

func (g *Grid) Sample(r *rand.Rand) []float64 {
	if g.mass <= 0 {
		panic("dist: Sample of zero-mass Grid distribution")
	}
	g.cumOnce.Do(func() {
		g.cum = make([]float64, len(g.w))
		var mass numeric.KahanSum
		for i, v := range g.w {
			mass.Add(v)
			g.cum[i] = mass.Value()
		}
	})
	u := r.Float64() * g.mass
	flat := sort.SearchFloat64s(g.cum, u)
	if flat >= len(g.w) {
		flat = len(g.w) - 1
	}
	// Decompose flat into per-axis indices.
	out := make([]float64, len(g.axes))
	for d := len(g.axes) - 1; d >= 0; d-- {
		a := g.axes[d]
		i := flat % a.Cells()
		flat /= a.Cells()
		if a.Kind == KindContinuous {
			out[d] = a.Edges[i] + r.Float64()*a.width(i)
		} else {
			out[d] = a.Values[i]
		}
	}
	return out
}

func (g *Grid) String() string {
	var b strings.Builder
	if len(g.axes) == 1 && g.axes[0].Kind == KindContinuous {
		fmt.Fprintf(&b, "Hist[%.6g,%.6g;%d bins](mass=%.4g)",
			g.axes[0].Edges[0], g.axes[0].Edges[len(g.axes[0].Edges)-1],
			g.axes[0].Cells(), g.mass)
		return b.String()
	}
	fmt.Fprintf(&b, "Grid[%d dims;", len(g.axes))
	for d, a := range g.axes {
		if d > 0 {
			b.WriteByte('x')
		}
		fmt.Fprintf(&b, "%d", a.Cells())
	}
	fmt.Fprintf(&b, " cells](mass=%.4g)", g.mass)
	return b.String()
}
