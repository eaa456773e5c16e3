package dist

import (
	"fmt"
	"math"
	"math/rand"

	"probdb/internal/numeric"
	"probdb/internal/region"
)

// discModel is the closed form of a symbolic integer-support distribution.
// enumerate expands it to explicit points (truncating negligible tails), the
// backing representation every Dist operation runs against; the symbolic
// form is retained for display and compact on-disk storage.
type discModel interface {
	enumerate() []Point
	String() string
}

// symDisc is a symbolic discrete distribution. It answers all Dist queries
// through a pre-enumerated Discrete backing; operations that change the
// distribution (floors, marginals) return plain Discrete values, exactly as
// the paper's symbolic representations degrade to generic ones once an
// operation leaves the closed-form family.
type symDisc struct {
	m       discModel
	backing *Discrete
}

var _ Dist = symDisc{}

func newSymDisc(m discModel) symDisc {
	return symDisc{m: m, backing: NewDiscreteJoint(1, m.enumerate())}
}

func (s symDisc) Dim() int                                 { return 1 }
func (s symDisc) DimKind(i int) Kind                       { checkDim(i, 1); return KindDiscrete }
func (s symDisc) Mass() float64                            { return 1 }
func (s symDisc) At(x []float64) float64                   { return s.backing.At(x) }
func (s symDisc) MassIn(b region.Box) float64              { return s.backing.MassIn(b) }
func (s symDisc) MassWhere(p func([]float64) bool) float64 { return s.backing.MassWhere(p) }
func (s symDisc) Marginal(keep []int) Dist                 { checkKeep(keep, 1); return s }
func (s symDisc) Floor(dim int, keep region.Set) Dist      { return s.backing.Floor(dim, keep) }
func (s symDisc) FloorWhere(p func([]float64) bool) Dist   { return s.backing.FloorWhere(p) }
func (s symDisc) Support() region.Box                      { return s.backing.Support() }
func (s symDisc) massIv(iv region.Interval) float64        { return s.backing.massIv(iv) }
func (s symDisc) supportIv() region.Interval               { return s.backing.supportIv() }
func (s symDisc) Mean(dim int) float64                     { return s.backing.Mean(dim) }
func (s symDisc) Variance(dim int) float64                 { return s.backing.Variance(dim) }
func (s symDisc) Sample(r *rand.Rand) []float64            { return s.backing.Sample(r) }
func (s symDisc) String() string                           { return s.m.String() }

// Bernoulli is the distribution taking value 1 with probability P and 0
// otherwise.
type Bernoulli struct {
	P float64
}

// NewBernoulli returns a symbolic Bernoulli(p) distribution. It panics
// unless 0 <= p <= 1.
func NewBernoulli(p float64) Dist {
	if !(p >= 0 && p <= 1) {
		panic("dist: NewBernoulli requires p in [0,1]")
	}
	return newSymDisc(Bernoulli{P: p})
}

func (b Bernoulli) enumerate() []Point {
	return []Point{{X: []float64{0}, P: 1 - b.P}, {X: []float64{1}, P: b.P}}
}

func (b Bernoulli) String() string { return fmt.Sprintf("Bern(%g)", b.P) }

// Binomial is the number of successes in N independent trials of
// probability P.
type Binomial struct {
	N int
	P float64
}

// NewBinomial returns a symbolic Binomial(n, p) distribution. It panics
// unless n >= 0 and 0 <= p <= 1.
func NewBinomial(n int, p float64) Dist {
	if n < 0 || !(p >= 0 && p <= 1) {
		panic("dist: NewBinomial requires n >= 0 and p in [0,1]")
	}
	return newSymDisc(Binomial{N: n, P: p})
}

func (b Binomial) enumerate() []Point {
	pts := make([]Point, 0, b.N+1)
	for k := 0; k <= b.N; k++ {
		if p := numeric.BinomialPMF(k, b.N, b.P); p > 0 {
			pts = append(pts, Point{X: []float64{float64(k)}, P: p})
		}
	}
	return pts
}

func (b Binomial) String() string { return fmt.Sprintf("Binom(%d,%g)", b.N, b.P) }

// Poisson is the Poisson distribution with mean Lambda.
type Poisson struct {
	Lambda float64
}

// NewPoisson returns a symbolic Poisson(lambda) distribution. It panics
// unless lambda >= 0. The unbounded support is truncated where the remaining
// tail mass drops below 1e-15.
func NewPoisson(lambda float64) Dist {
	if !(lambda >= 0) {
		panic("dist: NewPoisson requires lambda >= 0")
	}
	return newSymDisc(Poisson{Lambda: lambda})
}

func (p Poisson) enumerate() []Point {
	const tail = 1e-15
	var pts []Point
	var cum numeric.KahanSum
	// Upper bound: mean + 12*sqrt(mean) + 30 comfortably covers mass 1-1e-15.
	limit := int(p.Lambda+12*math.Sqrt(p.Lambda)) + 30
	for k := 0; k <= limit; k++ {
		pm := numeric.PoissonPMF(k, p.Lambda)
		if pm > 0 {
			pts = append(pts, Point{X: []float64{float64(k)}, P: pm})
		}
		cum.Add(pm)
		if float64(k) > p.Lambda && 1-cum.Value() < tail {
			break
		}
	}
	return pts
}

func (p Poisson) String() string { return fmt.Sprintf("Poisson(%g)", p.Lambda) }

// Geometric counts failures before the first success with success
// probability P (support {0, 1, 2, ...}).
type Geometric struct {
	P float64
}

// NewGeometric returns a symbolic Geometric(p) distribution. It panics
// unless 0 < p <= 1. The unbounded support is truncated where the remaining
// tail mass drops below 1e-15.
func NewGeometric(p float64) Dist {
	if !(p > 0 && p <= 1) {
		panic("dist: NewGeometric requires p in (0,1]")
	}
	return newSymDisc(Geometric{P: p})
}

func (g Geometric) enumerate() []Point {
	const tail = 1e-15
	limit := int(math.Ceil(math.Log(tail)/math.Log1p(-g.P))) + 1
	if g.P == 1 {
		limit = 1
	}
	pts := make([]Point, 0, limit)
	for k := 0; k < limit; k++ {
		if pm := numeric.GeometricPMF(k, g.P); pm > 0 {
			pts = append(pts, Point{X: []float64{float64(k)}, P: pm})
		}
	}
	return pts
}

func (g Geometric) String() string { return fmt.Sprintf("Geom(%g)", g.P) }
