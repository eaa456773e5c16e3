package dist

import (
	"fmt"
	"math"
	"math/rand"

	"probdb/internal/numeric"
	"probdb/internal/region"
)

// contModel is the closed-form core of a 1-D symbolic continuous
// distribution. symCont adapts any contModel to the Dist interface; the
// Floored wrapper reuses the same cdf/quantile machinery for symbolic floors.
type contModel interface {
	pdf(x float64) float64
	cdf(x float64) float64
	quantile(p float64) float64 // p in (0, 1)
	mean() float64
	variance() float64
	support() region.Interval // natural (untruncated) support
	sample(r *rand.Rand) float64
	check() error // the family's parameter rule
	String() string
}

// symCont is a complete (mass 1) symbolic continuous 1-D distribution.
type symCont struct {
	m contModel
}

var _ Dist = symCont{}

func (s symCont) Dim() int           { return 1 }
func (s symCont) DimKind(i int) Kind { checkDim(i, 1); return KindContinuous }
func (s symCont) Mass() float64      { return 1 }
func (s symCont) At(x []float64) float64 {
	return s.m.pdf(x[0])
}

func (s symCont) MassIn(b region.Box) float64 {
	if len(b) != 1 {
		panic("dist: MassIn box dimensionality mismatch")
	}
	return s.massIv(b[0])
}

func (s symCont) massIv(iv region.Interval) float64 { return intervalMassCont(s.m, iv) }

// intervalMassCont returns the mass of a continuous model inside iv.
// Endpoint openness is irrelevant for continuous distributions.
func intervalMassCont(m contModel, iv region.Interval) float64 {
	if iv.Empty() {
		return 0
	}
	var lo, hi float64
	if math.IsInf(iv.Lo, -1) {
		lo = 0
	} else {
		lo = m.cdf(iv.Lo)
	}
	if math.IsInf(iv.Hi, 1) {
		hi = 1
	} else {
		hi = m.cdf(iv.Hi)
	}
	return numeric.Clamp01(hi - lo)
}

func (s symCont) MassWhere(pred func([]float64) bool) float64 {
	return Collapse(s, DefaultOptions).MassWhere(pred)
}

func (s symCont) Marginal(keep []int) Dist {
	checkKeep(keep, 1)
	return s
}

func (s symCont) Floor(dim int, keep region.Set) Dist {
	checkDim(dim, 1)
	return newFloored(s.m, keep)
}

func (s symCont) FloorWhere(pred func([]float64) bool) Dist {
	return Collapse(s, DefaultOptions).FloorWhere(pred)
}

func (s symCont) Support() region.Box { return region.Box{s.supportIv()} }

func (s symCont) supportIv() region.Interval {
	return truncatedSupport(s.m, DefaultOptions.TailEps)
}

// truncatedSupport clips an unbounded natural support at negligible tail
// mass so that grid collapse has a finite box to work with. (Generic, so
// that checkCont boxes no model.)
func truncatedSupport[M contModel](m M, tailEps float64) region.Interval {
	iv := m.support()
	if math.IsInf(iv.Lo, -1) {
		iv.Lo = m.quantile(tailEps)
		iv.LoOpen = false
	}
	if math.IsInf(iv.Hi, 1) {
		iv.Hi = m.quantile(1 - tailEps)
		iv.HiOpen = false
	}
	return iv
}

func (s symCont) Mean(dim int) float64     { checkDim(dim, 1); return s.m.mean() }
func (s symCont) Variance(dim int) float64 { checkDim(dim, 1); return s.m.variance() }

func (s symCont) Sample(r *rand.Rand) []float64 {
	return []float64{s.m.sample(r)}
}

func (s symCont) String() string { return s.m.String() }

// Gaussian is the normal distribution N(Mu, Sigma^2). The paper's examples
// write it Gaus(mean, variance); NewGaussian takes the standard deviation
// and NewGaussianVar the variance, matching the paper's notation.
type Gaussian struct {
	Mu, Sigma float64
}

// NewGaussian returns N(mu, sigma²); BuildGaussian returns it or the
// *ParamError of the GAUSSIAN rule, which NewGaussian panics with.
func NewGaussian(mu, sigma float64) Dist { return must(BuildGaussian(mu, sigma)) }

func BuildGaussian(mu, sigma float64) (Dist, error) { return buildCont(Gaussian{Mu: mu, Sigma: sigma}) }

// NewGaussianVar and BuildGaussianVar are the two in the paper's notation,
// Gaus(mu, variance).
func NewGaussianVar(mu, variance float64) Dist { return must(BuildGaussianVar(mu, variance)) }

func BuildGaussianVar(mu, variance float64) (Dist, error) {
	g := Gaussian{Mu: mu, Sigma: math.Sqrt(variance)}
	if err := g.rule("GAUSSIAN", variance); err != nil {
		return nil, err
	}
	return symCont{g}, nil
}

// buildCont returns m as a Dist once it passes its family's rule.
func buildCont[M contModel](m M) (Dist, error) {
	if err := m.check(); err != nil {
		return nil, err
	}
	return symCont{m}, nil
}

func (g Gaussian) check() error { return g.rule("GAUSSIAN", g.Sigma*g.Sigma) }

// rule is the GAUSSIAN rule, which MVN applies to each marginal; variance
// is the caller's own spelling of Sigma² (the literal's parameter, or Sigma²
// for an encoding).
func (g Gaussian) rule(family string, variance float64) error {
	switch {
	case !finite(g.Mu):
		return &ParamError{family, "mean", g.Mu, "must be finite"}
	case !(variance > 0 && g.Sigma > 0) || math.IsInf(variance, 0):
		return &ParamError{family, "variance", variance, "must be positive and finite"}
	}
	return checkCont(family, "mean", g.Mu, g)
}

func (g Gaussian) pdf(x float64) float64 { return numeric.NormalPDF(x, g.Mu, g.Sigma) }
func (g Gaussian) cdf(x float64) float64 { return numeric.NormalCDF(x, g.Mu, g.Sigma) }
func (g Gaussian) mean() float64         { return g.Mu }
func (g Gaussian) variance() float64     { return g.Sigma * g.Sigma }
func (g Gaussian) support() region.Interval {
	return region.Interval{Lo: math.Inf(-1), LoOpen: true, Hi: math.Inf(1), HiOpen: true}
}
func (g Gaussian) sample(r *rand.Rand) float64 { return r.NormFloat64()*g.Sigma + g.Mu }

// tailZ holds the standard normal quantiles at the default tail cut
// tailEps. Every truncated support asks for them, so every GAUSSIAN check
// does, and a snapshot load checks each Gaussian it decodes: computed
// afresh they make a Check of one Gaussian cost about 280 ns instead of
// 50 ns. mu+sigma·z is the arithmetic numeric.NormalQuantile itself does,
// so the result is the same to the bit.
var (
	tailEps = DefaultOptions.TailEps
	tailZ   = [2]float64{numeric.NormalQuantile(tailEps, 0, 1), numeric.NormalQuantile(1-tailEps, 0, 1)}
)

func (g Gaussian) quantile(p float64) float64 {
	switch p {
	case tailEps:
		return g.Mu + g.Sigma*tailZ[0]
	case 1 - tailEps:
		return g.Mu + g.Sigma*tailZ[1]
	}
	return numeric.NormalQuantile(p, g.Mu, g.Sigma)
}

func (g Gaussian) String() string {
	// %.12g hides the last-ulp noise of sqrt(variance)² round trips, so
	// NewGaussianVar(20, 5) prints Gaus(20,5) like the paper's Table I.
	return fmt.Sprintf("Gaus(%.12g,%.12g)", g.Mu, g.Sigma*g.Sigma)
}

// Uniform is the continuous uniform distribution on [Lo, Hi].
type Uniform struct {
	Lo, Hi float64
}

// NewUniform returns the uniform distribution on [lo, hi]; BuildUniform
// returns it or the *ParamError of the UNIFORM rule, which NewUniform panics
// with.
func NewUniform(lo, hi float64) Dist { return must(BuildUniform(lo, hi)) }

func BuildUniform(lo, hi float64) (Dist, error) { return buildCont(Uniform{Lo: lo, Hi: hi}) }

func (u Uniform) check() error {
	switch {
	case !finite(u.Lo):
		return &ParamError{"UNIFORM", "lo", u.Lo, "must be finite"}
	case !finite(u.Hi) || !(u.Lo < u.Hi):
		return &ParamError{"UNIFORM", "hi", u.Hi, "must be finite and above lo"}
	}
	return checkCont("UNIFORM", "hi", u.Hi, u)
}

func (u Uniform) pdf(x float64) float64 {
	if x < u.Lo || x > u.Hi {
		return 0
	}
	return 1 / (u.Hi - u.Lo)
}

func (u Uniform) cdf(x float64) float64 {
	switch {
	case x <= u.Lo:
		return 0
	case x >= u.Hi:
		return 1
	default:
		return (x - u.Lo) / (u.Hi - u.Lo)
	}
}

func (u Uniform) quantile(p float64) float64 { return u.Lo + p*(u.Hi-u.Lo) }
func (u Uniform) mean() float64              { return (u.Lo + u.Hi) / 2 }
func (u Uniform) variance() float64          { d := u.Hi - u.Lo; return d * d / 12 }
func (u Uniform) support() region.Interval   { return region.Closed(u.Lo, u.Hi) }
func (u Uniform) sample(r *rand.Rand) float64 {
	return u.Lo + r.Float64()*(u.Hi-u.Lo)
}
func (u Uniform) String() string { return fmt.Sprintf("Unif(%g,%g)", u.Lo, u.Hi) }

// Exponential is the exponential distribution with the given Rate (support
// [0, +inf)).
type Exponential struct {
	Rate float64
}

// NewExponential returns the exponential distribution with rate lambda;
// BuildExponential returns it or the *ParamError of the EXPONENTIAL rule,
// which NewExponential panics with.
func NewExponential(lambda float64) Dist { return must(BuildExponential(lambda)) }

func BuildExponential(lambda float64) (Dist, error) { return buildCont(Exponential{Rate: lambda}) }

func (e Exponential) check() error {
	if !(e.Rate > 0) || math.IsInf(e.Rate, 0) {
		return &ParamError{"EXPONENTIAL", "rate", e.Rate, "must be positive and finite"}
	}
	return checkCont("EXPONENTIAL", "rate", e.Rate, e)
}

func (e Exponential) pdf(x float64) float64 {
	if x < 0 {
		return 0
	}
	return e.Rate * math.Exp(-e.Rate*x)
}

func (e Exponential) cdf(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return -math.Expm1(-e.Rate * x)
}

func (e Exponential) quantile(p float64) float64 { return -math.Log1p(-p) / e.Rate }
func (e Exponential) mean() float64              { return 1 / e.Rate }
func (e Exponential) variance() float64          { return 1 / (e.Rate * e.Rate) }
func (e Exponential) support() region.Interval {
	return region.Interval{Lo: 0, Hi: math.Inf(1), HiOpen: true}
}
func (e Exponential) sample(r *rand.Rand) float64 { return r.ExpFloat64() / e.Rate }
func (e Exponential) String() string              { return fmt.Sprintf("Exp(%g)", e.Rate) }

// Triangular is the triangular distribution on [Lo, Hi] with the given Mode.
type Triangular struct {
	Lo, Mode, Hi float64
}

// NewTriangular returns the triangular distribution on [lo, hi] with mode
// m; BuildTriangular returns it or the *ParamError of the TRIANGULAR rule,
// which NewTriangular panics with.
func NewTriangular(lo, m, hi float64) Dist { return must(BuildTriangular(lo, m, hi)) }

func BuildTriangular(lo, m, hi float64) (Dist, error) {
	return buildCont(Triangular{Lo: lo, Mode: m, Hi: hi})
}

func (t Triangular) check() error {
	switch {
	case !finite(t.Lo):
		return &ParamError{"TRIANGULAR", "lo", t.Lo, "must be finite"}
	case !finite(t.Hi) || !(t.Lo < t.Hi):
		return &ParamError{"TRIANGULAR", "hi", t.Hi, "must be finite and above lo"}
	case !(t.Lo <= t.Mode && t.Mode <= t.Hi):
		return &ParamError{"TRIANGULAR", "mode", t.Mode, "must be within [lo, hi]"}
	case t.Mode > t.Lo && !((t.Hi-t.Lo)*(t.Mode-t.Lo) > 0), t.Hi > t.Mode && !((t.Hi-t.Lo)*(t.Hi-t.Mode) > 0):
		// cdf divides by these products.
		return &ParamError{"TRIANGULAR", "mode", t.Mode, "is too close to lo or hi"}
	}
	return checkCont("TRIANGULAR", "hi", t.Hi, t)
}

func (t Triangular) pdf(x float64) float64 {
	switch {
	case x < t.Lo || x > t.Hi:
		return 0
	case x < t.Mode:
		return 2 * (x - t.Lo) / ((t.Hi - t.Lo) * (t.Mode - t.Lo))
	case x == t.Mode:
		return 2 / (t.Hi - t.Lo)
	default:
		return 2 * (t.Hi - x) / ((t.Hi - t.Lo) * (t.Hi - t.Mode))
	}
}

func (t Triangular) cdf(x float64) float64 {
	switch {
	case x <= t.Lo:
		return 0
	case x >= t.Hi:
		return 1
	case x <= t.Mode:
		d := (x - t.Lo)
		return d * d / ((t.Hi - t.Lo) * (t.Mode - t.Lo))
	default:
		d := (t.Hi - x)
		return 1 - d*d/((t.Hi-t.Lo)*(t.Hi-t.Mode))
	}
}

func (t Triangular) quantile(p float64) float64 {
	pivot := (t.Mode - t.Lo) / (t.Hi - t.Lo)
	if p <= pivot {
		return t.Lo + math.Sqrt(p*(t.Hi-t.Lo)*(t.Mode-t.Lo))
	}
	return t.Hi - math.Sqrt((1-p)*(t.Hi-t.Lo)*(t.Hi-t.Mode))
}

func (t Triangular) mean() float64 { return (t.Lo + t.Mode + t.Hi) / 3 }

func (t Triangular) variance() float64 {
	return (t.Lo*t.Lo + t.Mode*t.Mode + t.Hi*t.Hi -
		t.Lo*t.Mode - t.Lo*t.Hi - t.Mode*t.Hi) / 18
}

func (t Triangular) support() region.Interval { return region.Closed(t.Lo, t.Hi) }
func (t Triangular) sample(r *rand.Rand) float64 {
	return t.quantile(r.Float64())
}
func (t Triangular) String() string {
	return fmt.Sprintf("Tri(%g,%g,%g)", t.Lo, t.Mode, t.Hi)
}
