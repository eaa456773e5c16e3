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
	check() error // the family's parameter rule
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
	return symDisc{m: m, backing: must(newDiscrete(1, m.enumerate()))}
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

// maxEnumerate bounds the points a symbolic discrete pdf enumerates, so
// that no literal or encoding makes a constructor allocate without limit:
// at most about 3 MB while they are built. enumTail is the tail mass at
// which Poisson and Geometric stop enumerating their unbounded supports.
const (
	maxEnumerate = 1 << 16
	enumTail     = 1e-15
)

// checkEnum is the size rule every symbolic discrete family shares: n is
// the family's enumeration length.
func checkEnum(family, param string, v, n float64) error {
	if !(n <= maxEnumerate) {
		return &ParamError{family, param, v, fmt.Sprintf("needs more than %d points", maxEnumerate)}
	}
	return nil
}

// buildDisc returns m as a Dist once it passes its family's rule.
func buildDisc[M discModel](m M) (Dist, error) {
	if err := m.check(); err != nil {
		return nil, err
	}
	return newSymDisc(m), nil
}

func checkUnitProb(family string, p float64) error {
	if !(p >= 0 && p <= 1) {
		return &ParamError{family, "p", p, "must be in [0, 1]"}
	}
	return nil
}

// Bernoulli is the distribution taking value 1 with probability P and 0
// otherwise.
type Bernoulli struct {
	P float64
}

// NewBernoulli returns Bernoulli(p); BuildBernoulli returns it or the
// *ParamError of the BERNOULLI rule, which NewBernoulli panics with.
func NewBernoulli(p float64) Dist { return must(BuildBernoulli(p)) }

func BuildBernoulli(p float64) (Dist, error) { return buildDisc(Bernoulli{P: p}) }

func (b Bernoulli) check() error { return checkUnitProb("BERNOULLI", b.P) }

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

// NewBinomial returns Binomial(n, p); BuildBinomial returns it or the
// *ParamError of the BINOMIAL rule, which NewBinomial panics with.
func NewBinomial(n int, p float64) Dist { return must(BuildBinomial(float64(n), p)) }

func BuildBinomial(n, p float64) (Dist, error) {
	if err := checkBinomial(n, p); err != nil {
		return nil, err
	}
	return newSymDisc(Binomial{N: int(n), P: p}), nil
}

func (b Binomial) check() error { return checkBinomial(float64(b.N), b.P) }

// checkBinomial is the BINOMIAL rule.
func checkBinomial(n, p float64) error {
	if !(n >= 0 && n == math.Trunc(n)) {
		return &ParamError{"BINOMIAL", "n", n, "must be a non-negative integer"}
	}
	if err := checkEnum("BINOMIAL", "n", n, n+1); err != nil {
		return err
	}
	return checkUnitProb("BINOMIAL", p)
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

// NewPoisson returns Poisson(lambda); BuildPoisson returns it or the
// *ParamError of the POISSON rule, which NewPoisson panics with.
func NewPoisson(lambda float64) Dist { return must(BuildPoisson(lambda)) }

func BuildPoisson(lambda float64) (Dist, error) { return buildDisc(Poisson{Lambda: lambda}) }

func (p Poisson) check() error {
	if !(p.Lambda >= 0) {
		return &ParamError{"POISSON", "lambda", p.Lambda, "must be at least 0"}
	}
	return checkEnum("POISSON", "lambda", p.Lambda, p.enumLen())
}

// enumLen bounds the points enumerate visits: mean + 12·sqrt(mean) + 30
// comfortably covers mass 1 − enumTail.
func (p Poisson) enumLen() float64 { return math.Trunc(p.Lambda+12*math.Sqrt(p.Lambda)) + 31 }

func (p Poisson) enumerate() []Point {
	var pts []Point
	var cum numeric.KahanSum
	n := int(p.enumLen())
	for k := 0; k < n; k++ {
		pm := numeric.PoissonPMF(k, p.Lambda)
		if pm > 0 {
			pts = append(pts, Point{X: []float64{float64(k)}, P: pm})
		}
		cum.Add(pm)
		if float64(k) > p.Lambda && 1-cum.Value() < enumTail {
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

// NewGeometric returns Geometric(p); BuildGeometric returns it or the
// *ParamError of the GEOMETRIC rule, which NewGeometric panics with.
func NewGeometric(p float64) Dist { return must(BuildGeometric(p)) }

func BuildGeometric(p float64) (Dist, error) { return buildDisc(Geometric{P: p}) }

func (g Geometric) check() error {
	if !(g.P > 0 && g.P <= 1) {
		return &ParamError{"GEOMETRIC", "p", g.P, "must be in (0, 1]"}
	}
	return checkEnum("GEOMETRIC", "p", g.P, g.enumLen())
}

// enumLen is the number of points before the tail drops below enumTail.
func (g Geometric) enumLen() float64 { return math.Ceil(math.Log(enumTail)/math.Log1p(-g.P)) + 1 }

func (g Geometric) enumerate() []Point {
	n := int(g.enumLen())
	pts := make([]Point, 0, n)
	for k := 0; k < n; k++ {
		if pm := numeric.GeometricPMF(k, g.P); pm > 0 {
			pts = append(pts, Point{X: []float64{float64(k)}, P: pm})
		}
	}
	return pts
}

func (g Geometric) String() string { return fmt.Sprintf("Geom(%g)", g.P) }
