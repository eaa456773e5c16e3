package dist

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"probdb/internal/numeric"
	"probdb/internal/region"
)

// Point is one value–probability pair of a Discrete distribution. X has one
// entry per dimension.
type Point struct {
	X []float64
	P float64
}

// Discrete is an exact, possibly-partial, possibly-joint discrete
// distribution: the "discrete sampling" generic representation of §II-A and
// the natural representation for categorical/tuple uncertainty. Points are
// kept sorted lexicographically; duplicates are merged at construction.
type Discrete struct {
	dim  int
	pts  []Point
	cum  []float64 // cumulative masses for sampling
	mass float64
}

var _ Dist = (*Discrete)(nil)

// NewDiscrete builds a 1-D discrete distribution from parallel value and
// probability slices. Probabilities must be non-negative and sum to at most
// 1 (partial pdfs are allowed); values must be finite. It panics on
// malformed input.
func NewDiscrete(values, probs []float64) *Discrete {
	if len(values) != len(probs) {
		panic("dist: NewDiscrete length mismatch")
	}
	xs := append([]float64(nil), values...)
	pts := make([]Point, len(values))
	for i := range pts {
		pts[i] = Point{X: xs[i : i+1 : i+1], P: probs[i]}
	}
	return must(newDiscrete(1, pts))
}

// NewDiscreteJoint builds a dim-dimensional discrete distribution from
// points. It panics with a *ParamError where BuildDiscreteJoint returns one.
func NewDiscreteJoint(dim int, points []Point) *Discrete {
	return must(BuildDiscreteJoint(dim, points))
}

// BuildDiscreteJoint builds a dim-dimensional discrete distribution from
// points, or returns a *ParamError on malformed input: wrong
// dimensionality, non-finite values, negative probabilities, or total mass
// beyond 1 + massTol.
func BuildDiscreteJoint(dim int, points []Point) (*Discrete, error) {
	if dim <= 0 {
		return nil, &ParamError{"DISCRETE", "dimension", float64(dim), "must be at least 1"}
	}
	xs := make([]float64, 0, dim*len(points))
	pts := make([]Point, len(points))
	for i, p := range points {
		if len(p.X) != dim {
			return nil, &ParamError{"DISCRETE", "dimension", float64(len(p.X)), fmt.Sprintf("must match the first point's %d", dim)}
		}
		xs = append(xs, p.X...)
		pts[i] = Point{X: xs[len(xs)-dim : len(xs) : len(xs)], P: p.P}
	}
	return newDiscrete(dim, pts)
}

// newDiscrete is BuildDiscreteJoint over points the caller hands over: pts
// and the coordinate slices it references are owned by the result and
// nothing else may hold them. Every point is checked; zero-probability
// points are dropped and the rest sorted (skipped when already in order, as
// the codec's are) and merged in place.
func newDiscrete(dim int, pts []Point) (*Discrete, error) {
	kept := pts[:0]
	for _, p := range pts {
		if len(p.X) != dim {
			panic(fmt.Sprintf("dist: point has %d coordinates, want %d", len(p.X), dim))
		}
		for _, v := range p.X {
			if err := checkCoord(v); err != nil {
				return nil, err
			}
		}
		if err := checkProb("DISCRETE", p.P); err != nil {
			return nil, err
		}
		if p.P != 0 {
			kept = append(kept, p)
		}
	}
	pts = kept
	if !slices.IsSortedFunc(pts, cmpPoint) {
		slices.SortFunc(pts, cmpPoint)
	}
	// Merge duplicates.
	merged := pts[:0]
	for _, p := range pts {
		if len(merged) > 0 && lexEqual(merged[len(merged)-1].X, p.X) {
			merged[len(merged)-1].P += p.P
		} else {
			merged = append(merged, p)
		}
	}
	var mass numeric.KahanSum
	cum := make([]float64, len(merged))
	for i, p := range merged {
		mass.Add(p.P)
		cum[i] = mass.Value()
	}
	total := mass.Value()
	if err := checkMass("DISCRETE", total); err != nil {
		return nil, err
	}
	return &Discrete{dim: dim, pts: merged, cum: cum, mass: numeric.Clamp01(total)}, nil
}

// Unit returns the identity pdf f0 of §III-C case 2(b): a point mass of
// probability 1 at x.
func Unit(x ...float64) *Discrete {
	return NewDiscreteJoint(len(x), []Point{{X: x, P: 1}})
}

func lexLess(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// cmpPoint orders points lexicographically by coordinates.
func cmpPoint(a, b Point) int {
	switch {
	case lexLess(a.X, b.X):
		return -1
	case lexLess(b.X, a.X):
		return 1
	}
	return 0
}

func lexEqual(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Points returns the distribution's points in lexicographic order. The
// returned slice and its contents must not be modified.
func (d *Discrete) Points() []Point { return d.pts }

func (d *Discrete) Dim() int           { return d.dim }
func (d *Discrete) DimKind(i int) Kind { checkDim(i, d.dim); return KindDiscrete }
func (d *Discrete) Mass() float64      { return d.mass }

func (d *Discrete) At(x []float64) float64 {
	if len(x) != d.dim {
		panic("dist: At dimensionality mismatch")
	}
	i := sort.Search(len(d.pts), func(i int) bool { return !lexLess(d.pts[i].X, x) })
	if i < len(d.pts) && lexEqual(d.pts[i].X, x) {
		return d.pts[i].P
	}
	return 0
}

func (d *Discrete) MassIn(b region.Box) float64 {
	if len(b) != d.dim {
		panic("dist: MassIn box dimensionality mismatch")
	}
	if d.dim == 1 {
		return d.massIv(b[0])
	}
	var s numeric.KahanSum
	for _, p := range d.pts {
		if b.Contains(p.X) {
			s.Add(p.P)
		}
	}
	return numeric.Clamp01(s.Value())
}

// massIv is MassIn of a one-dimensional Discrete.
func (d *Discrete) massIv(iv region.Interval) float64 {
	var s numeric.KahanSum
	for _, p := range d.pts {
		if iv.Contains(p.X[0]) {
			s.Add(p.P)
		}
	}
	return numeric.Clamp01(s.Value())
}

func (d *Discrete) MassWhere(pred func([]float64) bool) float64 {
	var s numeric.KahanSum
	for _, p := range d.pts {
		if pred(p.X) {
			s.Add(p.P)
		}
	}
	return numeric.Clamp01(s.Value())
}

func (d *Discrete) Marginal(keep []int) Dist {
	checkKeep(keep, d.dim)
	if identityKeep(keep, d.dim) {
		return d
	}
	pts := make([]Point, len(d.pts))
	for i, p := range d.pts {
		x := make([]float64, len(keep))
		for j, k := range keep {
			x[j] = p.X[k]
		}
		pts[i] = Point{X: x, P: p.P}
	}
	return NewDiscreteJoint(len(keep), pts)
}

func (d *Discrete) Floor(dim int, keep region.Set) Dist {
	checkDim(dim, d.dim)
	return d.FloorWhere(func(x []float64) bool { return keep.Contains(x[dim]) })
}

func (d *Discrete) FloorWhere(pred func([]float64) bool) Dist {
	pts := make([]Point, 0, len(d.pts))
	for _, p := range d.pts {
		if pred(p.X) {
			pts = append(pts, p)
		}
	}
	return NewDiscreteJoint(d.dim, pts)
}

// supportIv is Support()[0] of a one-dimensional Discrete: its points are
// sorted, so the first and last bound them.
func (d *Discrete) supportIv() region.Interval {
	if len(d.pts) == 0 {
		return region.Point(0)
	}
	return region.Closed(d.pts[0].X[0], d.pts[len(d.pts)-1].X[0])
}

func (d *Discrete) Support() region.Box {
	b := make(region.Box, d.dim)
	if len(d.pts) == 0 {
		for i := range b {
			b[i] = region.Point(0)
		}
		return b
	}
	for i := range b {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, p := range d.pts {
			if p.X[i] < lo {
				lo = p.X[i]
			}
			if p.X[i] > hi {
				hi = p.X[i]
			}
		}
		b[i] = region.Closed(lo, hi)
	}
	return b
}

func (d *Discrete) Mean(dim int) float64 {
	checkDim(dim, d.dim)
	if d.mass == 0 {
		return math.NaN()
	}
	var s numeric.KahanSum
	for _, p := range d.pts {
		s.Add(p.P * p.X[dim])
	}
	return s.Value() / d.mass
}

func (d *Discrete) Variance(dim int) float64 {
	checkDim(dim, d.dim)
	if d.mass == 0 {
		return math.NaN()
	}
	mu := d.Mean(dim)
	var s numeric.KahanSum
	for _, p := range d.pts {
		dd := p.X[dim] - mu
		s.Add(p.P * dd * dd)
	}
	return s.Value() / d.mass
}

func (d *Discrete) Sample(r *rand.Rand) []float64 {
	if d.mass <= 0 {
		panic("dist: Sample of zero-mass Discrete distribution")
	}
	u := r.Float64() * d.mass
	i := sort.SearchFloat64s(d.cum, u)
	if i >= len(d.pts) {
		i = len(d.pts) - 1
	}
	out := make([]float64, d.dim)
	copy(out, d.pts[i].X)
	return out
}

func (d *Discrete) String() string {
	var b strings.Builder
	b.WriteString("Discrete(")
	for i, p := range d.pts {
		if i > 0 {
			b.WriteString(", ")
		}
		if i == 8 && len(d.pts) > 10 {
			fmt.Fprintf(&b, "… %d more", len(d.pts)-i)
			break
		}
		if d.dim == 1 {
			fmt.Fprintf(&b, "%g:%.6g", p.X[0], p.P)
		} else {
			b.WriteByte('{')
			for j, v := range p.X {
				if j > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "%g", v)
			}
			fmt.Fprintf(&b, "}:%.6g", p.P)
		}
	}
	b.WriteByte(')')
	return b.String()
}
