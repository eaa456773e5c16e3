package dist

import (
	"fmt"
	"math"

	"probdb/internal/region"
)

// Collapse converts any distribution into a generic representation: an
// exact *Discrete when every dimension is discrete (subject to
// opts.MaxDiscreteCells), otherwise a *Grid. Collapse is the bridge the
// paper describes between symbolic/factored forms and the generic Histogram
// and Discrete fallbacks: symbolic continuous distributions are binned with
// exact per-bin mass (CDF differences), floored distributions have their
// bins refined at floor boundaries so no mass is smeared across a floor, and
// independent products become the outer product of their collapsed factors.
func Collapse(d Dist, opts Options) Dist {
	opts = opts.normalized()
	switch v := d.(type) {
	case *Discrete:
		return v
	case symDisc:
		return v.backing
	case *Grid:
		return v
	case symCont:
		return collapseCont(v.m, region.Full, opts)
	case Floored:
		return collapseCont(v.m, v.keep, opts)
	case *Product:
		return collapseProduct(v, opts)
	case *MultiGaussian:
		return v.collapse()
	default:
		return collapseGeneric(d, opts)
	}
}

// collapseCont bins a (possibly floored) continuous model into a Grid with
// exact per-bin mass. Bin edges are the opts.GridBins equal-width cuts over
// the truncated support, refined at every floor boundary.
func collapseCont(m contModel, keep region.Set, opts Options) *Grid {
	sup := truncatedSupport(m, opts.TailEps)
	lo, hi := sup.Lo, sup.Hi
	// Clip the binning range to the kept region's extent when floored.
	if !keep.IsFull() && !keep.IsEmpty() {
		ivs := keep.Intervals()
		klo, khi := ivs[0].Lo, ivs[len(ivs)-1].Hi
		if klo > lo && !math.IsInf(klo, 0) {
			lo = klo
		}
		if khi < hi && !math.IsInf(khi, 0) {
			hi = khi
		}
	}
	if !(hi > lo) {
		// Degenerate support (a point floor): single empty-ish bin. Past
		// 2⁵³ lo+1 rounds back to lo.
		hi = math.Max(lo+1, math.Nextafter(lo, math.Inf(1)))
	}
	edges := make([]float64, 0, opts.GridBins+1)
	step := (hi - lo) / float64(opts.GridBins) // checkCont bounds this step
	for i := 0; i <= opts.GridBins; i++ {
		edges = append(edges, lo+float64(i)*step)
	}
	edges[len(edges)-1] = hi
	for _, c := range boundaryPoints(keep, lo, hi) {
		edges = append(edges, c)
	}
	edges = dedupeSorted(edges)
	floored := newFloored(m, keep) // also handles keep == Full via symCont
	masses := make([]float64, len(edges)-1)
	for i := range masses {
		masses[i] = floored.MassIn(region.Box{region.Closed(edges[i], edges[i+1])})
	}
	return NewGrid([]Axis{{Kind: KindContinuous, Edges: edges}}, masses)
}

func dedupeSorted(xs []float64) []float64 {
	sortFloat64s(xs)
	out := xs[:1]
	for _, x := range xs[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// sortFloat64s is a tiny insertion sort for the short, nearly-sorted edge
// slices used during collapse (avoids pulling sort.Float64s into the hot
// path for 30-element slices — and keeps edges bit-exact).
func sortFloat64s(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// collapseProduct collapses each factor and combines them: an exact sparse
// cross product when all factors are discrete and small enough, otherwise a
// dense Grid outer product.
func collapseProduct(p *Product, opts Options) Dist {
	parts := make([]Dist, len(p.factors))
	allDiscrete := true
	discreteCells := 1
	for i, f := range p.factors {
		parts[i] = Collapse(f, opts)
		if dd, ok := parts[i].(*Discrete); ok {
			if discreteCells < opts.MaxDiscreteCells {
				discreteCells *= maxInt(1, len(dd.Points()))
			}
		} else {
			allDiscrete = false
		}
	}
	if allDiscrete && discreteCells <= opts.MaxDiscreteCells {
		return crossDiscrete(parts, p.scale)
	}
	// Dense outer product of grids. Discrete factors become value axes.
	var axes []Axis
	var weights [][]float64 // flattened per part
	for _, part := range parts {
		g := asGrid(part)
		axes = append(axes, g.axes...)
		weights = append(weights, g.w)
	}
	total := 1
	for _, a := range axes {
		total *= a.Cells()
	}
	w := outerProduct(weights, total, p.scale)
	return must(newGrid(axes, w))
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// crossDiscrete builds the exact joint of independent discrete parts.
func crossDiscrete(parts []Dist, scale float64) *Discrete {
	dims := 0
	for _, p := range parts {
		dims += p.Dim()
	}
	pts := []Point{{X: nil, P: scale}}
	for _, p := range parts {
		dp := p.(*Discrete)
		next := make([]Point, 0, len(pts)*len(dp.Points()))
		for _, acc := range pts {
			for _, q := range dp.Points() {
				x := make([]float64, 0, dims)
				x = append(x, acc.X...)
				x = append(x, q.X...)
				next = append(next, Point{X: x, P: acc.P * q.P})
			}
		}
		pts = next
	}
	return NewDiscreteJoint(dims, pts)
}

// asGrid views a collapsed part as a Grid (identity for grids; discrete
// parts become per-dimension value axes with the exact joint masses).
func asGrid(d Dist) *Grid {
	switch v := d.(type) {
	case *Grid:
		return v
	case *Discrete:
		return discreteToGrid(v)
	default:
		panic(fmt.Sprintf("dist: asGrid of %T", d))
	}
}

// discreteToGrid densifies a Discrete into a Grid whose axes are the sorted
// unique values per dimension. Exact, but the dense cell count is the
// product of per-dimension cardinalities.
func discreteToGrid(d *Discrete) *Grid {
	dim := d.Dim()
	axes := make([]Axis, dim)
	for i := 0; i < dim; i++ {
		var vals []float64
		for _, p := range d.Points() {
			vals = append(vals, p.X[i])
		}
		vals = dedupeSortedAll(vals)
		axes[i] = Axis{Kind: KindDiscrete, Values: vals}
	}
	n := 1
	for _, a := range axes {
		n *= a.Cells()
	}
	w := make([]float64, n)
	for _, p := range d.Points() {
		flat := 0
		for i, a := range axes {
			flat = flat*a.Cells() + a.locate(p.X[i])
		}
		w[flat] += p.P
	}
	return NewGrid(axes, w)
}

func dedupeSortedAll(xs []float64) []float64 {
	if len(xs) == 0 {
		return xs
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	// Full sort (inputs can be arbitrary order).
	quickSortFloats(sorted)
	out := sorted[:1]
	for _, x := range sorted[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

func quickSortFloats(xs []float64) {
	// Defer to insertion sort for small slices; recursive quicksort otherwise.
	if len(xs) < 24 {
		sortFloat64s(xs)
		return
	}
	pivot := xs[len(xs)/2]
	lt, i, gt := 0, 0, len(xs)
	for i < gt {
		switch {
		case xs[i] < pivot:
			xs[lt], xs[i] = xs[i], xs[lt]
			lt++
			i++
		case xs[i] > pivot:
			gt--
			xs[gt], xs[i] = xs[i], xs[gt]
		default:
			i++
		}
	}
	quickSortFloats(xs[:lt])
	quickSortFloats(xs[gt:])
}

// outerProduct computes the Kronecker product of the weight vectors times
// scale, producing total entries.
func outerProduct(weights [][]float64, total int, scale float64) []float64 {
	out := []float64{scale}
	for _, wv := range weights {
		next := make([]float64, 0, len(out)*len(wv))
		for _, a := range out {
			for _, b := range wv {
				next = append(next, a*b)
			}
		}
		out = next
	}
	if len(out) != total {
		panic("dist: outer product size mismatch")
	}
	return out
}

// collapseGeneric is the fallback for distribution types the switch does not
// know: it bins MassIn over the support box. Only 1-D continuous fallbacks
// are supported; everything in this package is covered by the switch, so
// this path exists for external Dist implementations.
func collapseGeneric(d Dist, opts Options) Dist {
	if d.Dim() != 1 || d.DimKind(0) != KindContinuous {
		panic(fmt.Sprintf("dist: cannot collapse unknown distribution %T", d))
	}
	sup := d.Support()[0]
	edges := make([]float64, opts.GridBins+1)
	for i := range edges {
		edges[i] = sup.Lo + float64(i)*(sup.Hi-sup.Lo)/float64(opts.GridBins)
	}
	masses := make([]float64, opts.GridBins)
	for i := range masses {
		masses[i] = d.MassIn(region.Box{region.Closed(edges[i], edges[i+1])})
	}
	return NewGrid([]Axis{{Kind: KindContinuous, Edges: edges}}, masses)
}

// Discretize approximates a 1-D distribution by n value–probability pairs —
// the "discrete sampling" representation the paper's experiments compare
// against (§IV). The points sit at the centers of n equal-width strips over
// the (truncated) support, each carrying that strip's exact mass; a range
// query over the result sees the all-or-nothing boundary error Fig. 4
// measures.
func Discretize(d Dist, n int) *Discrete {
	if d.Dim() != 1 {
		panic("dist: Discretize requires a one-dimensional distribution")
	}
	if n < 1 {
		panic("dist: Discretize requires n >= 1")
	}
	if dd, ok := d.(*Discrete); ok {
		return dd // already discrete: exact
	}
	sup := d.Support()[0]
	lo, hi := sup.Lo, sup.Hi
	if !(hi > lo) {
		hi = lo + 1
	}
	values := make([]float64, n)
	probs := make([]float64, n)
	step := (hi - lo) / float64(n)
	for i := 0; i < n; i++ {
		values[i] = lo + (float64(i)+0.5)*step
		a, b := lo+float64(i)*step, lo+float64(i+1)*step
		if i == 0 {
			a = math.Inf(-1)
		}
		if i == n-1 {
			b = math.Inf(1)
		}
		probs[i] = d.MassIn(region.Box{region.Closed(a, b)})
	}
	return NewDiscrete(values, probs)
}

// ToHistogram approximates a 1-D distribution by a histogram with the given
// number of equal-width buckets over the (truncated) support, with exact
// per-bucket mass — the paper's Hist generic representation.
func ToHistogram(d Dist, bins int) *Grid {
	if d.Dim() != 1 {
		panic("dist: ToHistogram requires a one-dimensional distribution")
	}
	if bins < 1 {
		panic("dist: ToHistogram requires bins >= 1")
	}
	sup := d.Support()[0]
	lo, hi := sup.Lo, sup.Hi
	if !(hi > lo) {
		hi = lo + 1
	}
	edges := make([]float64, bins+1)
	for i := range edges {
		edges[i] = lo + float64(i)*(hi-lo)/float64(bins)
	}
	edges[bins] = hi
	masses := make([]float64, bins)
	for i := range masses {
		a, b := edges[i], edges[i+1]
		if i == 0 {
			a = math.Inf(-1)
		}
		if i == bins-1 {
			b = math.Inf(1)
		}
		masses[i] = d.MassIn(region.Box{region.Closed(a, b)})
	}
	return NewGrid([]Axis{{Kind: KindContinuous, Edges: edges}}, masses)
}

// ToHistogramEquiDepth approximates a 1-D continuous distribution by an
// equi-depth histogram: bucket edges at the quantiles, so every bucket
// carries the same mass. Compared to the equi-width ToHistogram it spends
// resolution where the mass is — the classic DB statistics trade-off,
// measured against the paper's equi-width choice in ablation 5.
func ToHistogramEquiDepth(d Dist, bins int) *Grid {
	if d.Dim() != 1 {
		panic("dist: ToHistogramEquiDepth requires a one-dimensional distribution")
	}
	if bins < 1 {
		panic("dist: ToHistogramEquiDepth requires bins >= 1")
	}
	if d.DimKind(0) != KindContinuous {
		panic("dist: ToHistogramEquiDepth requires a continuous distribution")
	}
	mass := d.Mass()
	if mass <= 0 {
		panic("dist: ToHistogramEquiDepth of zero-mass distribution")
	}
	sup := d.Support()[0]
	lo, hi := sup.Lo, sup.Hi
	if !(hi > lo) {
		hi = lo + 1
	}
	edges := make([]float64, bins+1)
	edges[0], edges[bins] = lo, hi
	for i := 1; i < bins; i++ {
		target := mass * float64(i) / float64(bins)
		// Bisect the CDF for the i/bins quantile.
		a, b := lo, hi
		for it := 0; it < 60 && b-a > 1e-12*(1+math.Abs(b)); it++ {
			mid := a + (b-a)/2
			if CDF(d, mid) < target {
				a = mid
			} else {
				b = mid
			}
		}
		edges[i] = a + (b-a)/2
	}
	// Guard against numerically coincident edges in flat CDF regions.
	for i := 1; i <= bins; i++ {
		if edges[i] <= edges[i-1] {
			edges[i] = math.Nextafter(edges[i-1], math.Inf(1))
		}
	}
	masses := make([]float64, bins)
	for i := range masses {
		a, b := edges[i], edges[i+1]
		if i == 0 {
			a = math.Inf(-1)
		}
		if i == bins-1 {
			b = math.Inf(1)
		}
		masses[i] = d.MassIn(region.Box{region.Closed(a, b)})
	}
	return NewGrid([]Axis{{Kind: KindContinuous, Edges: edges}}, masses)
}
