package dist

import (
	"fmt"
	"math"
	"math/rand"

	"probdb/internal/numeric"
	"probdb/internal/region"
)

// Floored is a symbolic floor (§III-A): a closed-form continuous
// distribution with the regions outside keep zeroed out, *without*
// flattening to a histogram. The paper writes the result of applying the
// predicate x < 5 to Gaus(5,1) as "[Gaus(5,1), Floor{[5,∞]}]"; here the same
// value is a Floored with base Gaus(5,1) and keep = (-∞, 5).
//
// A Floored is in general a partial pdf: its mass is the base mass inside
// keep, and 1−mass is the probability the owning tuple ceased to exist under
// the selection that produced the floor.
type Floored struct {
	m    contModel
	keep region.Set
	mass float64
}

var _ Dist = Floored{}

// newFloored builds a Floored over m keeping only keep, simplifying to the
// plain symbolic distribution when the floor is trivial.
func newFloored(m contModel, keep region.Set) Dist {
	if keep.IsFull() {
		return symCont{m}
	}
	var mass numeric.KahanSum
	for _, iv := range keep.Intervals() {
		mass.Add(intervalMassCont(m, iv))
	}
	return Floored{m: m, keep: keep, mass: numeric.Clamp01(mass.Value())}
}

// Keep returns the kept (non-floored) region.
func (f Floored) Keep() region.Set { return f.keep }

// Base returns the underlying unfloored symbolic distribution.
func (f Floored) Base() Dist { return symCont{f.m} }

func (f Floored) Dim() int           { return 1 }
func (f Floored) DimKind(i int) Kind { checkDim(i, 1); return KindContinuous }
func (f Floored) Mass() float64      { return f.mass }

func (f Floored) At(x []float64) float64 {
	if !f.keep.Contains(x[0]) {
		return 0
	}
	return f.m.pdf(x[0])
}

func (f Floored) MassIn(b region.Box) float64 {
	if len(b) != 1 {
		panic("dist: MassIn box dimensionality mismatch")
	}
	return f.massIv(b[0])
}

func (f Floored) massIv(q region.Interval) float64 {
	var mass numeric.KahanSum
	for _, iv := range f.keep.Intervals() {
		mass.Add(intervalMassCont(f.m, iv.Intersect(q)))
	}
	return numeric.Clamp01(mass.Value())
}

func (f Floored) MassWhere(pred func([]float64) bool) float64 {
	return Collapse(f, DefaultOptions).MassWhere(pred)
}

func (f Floored) Marginal(keep []int) Dist {
	checkKeep(keep, 1)
	return f
}

// Floor composes floors symbolically: successive floors intersect their kept
// regions, so they commute exactly as §III-A requires ("the result would be
// floor(f, F1 ∪ ... ∪ Fk) regardless of the order").
func (f Floored) Floor(dim int, keep region.Set) Dist {
	checkDim(dim, 1)
	return newFloored(f.m, f.keep.Intersect(keep))
}

func (f Floored) FloorWhere(pred func([]float64) bool) Dist {
	return Collapse(f, DefaultOptions).FloorWhere(pred)
}

func (f Floored) Support() region.Box { return region.Box{f.supportIv()} }

func (f Floored) supportIv() region.Interval {
	base := truncatedSupport(f.m, DefaultOptions.TailEps)
	ivs := f.keep.Intervals()
	if len(ivs) == 0 {
		return region.Point(f.m.mean()) // zero-mass: degenerate box
	}
	lo, hi := ivs[0].Lo, ivs[len(ivs)-1].Hi
	// Infinite keep endpoints clip to the truncated base support. Finite
	// ones stand: the density is positive everywhere inside keep, even when
	// keep lies beyond the base's negligible-tail cutoff (the remaining
	// conditional mass lives exactly there).
	if math.IsInf(lo, -1) {
		lo = base.Lo
	}
	if math.IsInf(hi, 1) {
		hi = base.Hi
	}
	// Shrink toward the bulk when the keep region and the base bulk
	// overlap; a keep region entirely in a far tail keeps its own bounds.
	if clipLo, clipHi := math.Max(lo, base.Lo), math.Min(hi, base.Hi); clipLo <= clipHi {
		lo, hi = clipLo, clipHi
	}
	if lo > hi {
		lo, hi = base.Lo, base.Hi
	}
	return region.Closed(lo, hi)
}

// Mean returns the conditional mean given existence, integrating the base
// density over the kept regions. The result is clamped into the support
// hull: for kept regions so deep in a tail that the CDF saturates in double
// precision (conditional mass ~1e-16), the integral degrades gracefully to
// the nearest support edge instead of drifting outside it.
func (f Floored) Mean(dim int) float64 {
	checkDim(dim, 1)
	m := f.moment(func(x float64) float64 { return x })
	sup := f.Support()[0]
	if m < sup.Lo {
		m = sup.Lo
	}
	if m > sup.Hi {
		m = sup.Hi
	}
	return m
}

func (f Floored) Variance(dim int) float64 {
	checkDim(dim, 1)
	mu := f.Mean(0)
	return f.moment(func(x float64) float64 { d := x - mu; return d * d })
}

// moment integrates g(x)·pdf(x) over the kept region and normalizes by
// mass. The integration runs in CDF space — substituting u = F(x) turns
// ∫ g(x)·f(x) dx into ∫ g(F⁻¹(u)) du — so the integrand stays O(g) even
// when the kept region sits in a far tail where the density underflows;
// that is exactly where all of the conditional mass lives.
func (f Floored) moment(g func(float64) float64) float64 {
	if f.mass == 0 {
		return math.NaN()
	}
	var s numeric.KahanSum
	for _, iv := range f.keep.Intervals() {
		uLo, uHi := 0.0, 1.0
		if !math.IsInf(iv.Lo, -1) {
			uLo = f.m.cdf(iv.Lo)
		}
		if !math.IsInf(iv.Hi, 1) {
			uHi = f.m.cdf(iv.Hi)
		}
		if uHi <= uLo {
			continue
		}
		s.Add(numeric.Integrate(func(u float64) float64 {
			if u <= 0 {
				u = math.SmallestNonzeroFloat64
			}
			if u >= 1 {
				u = 1 - 1e-16
			}
			return g(f.m.quantile(u))
		}, uLo, uHi, 1e-12*math.Max(uHi-uLo, 1e-6)))
	}
	return s.Value() / f.mass
}

// Sample draws from the floored distribution conditional on existence, by
// inverse-CDF restricted to the kept regions. It panics on zero mass.
func (f Floored) Sample(r *rand.Rand) []float64 {
	if f.mass <= 0 {
		panic("dist: Sample of zero-mass Floored distribution")
	}
	u := r.Float64() * f.mass
	for _, iv := range f.keep.Intervals() {
		m := intervalMassCont(f.m, iv)
		if u > m {
			u -= m
			continue
		}
		var base float64
		if !math.IsInf(iv.Lo, -1) {
			base = f.m.cdf(iv.Lo)
		}
		p := base + u
		if p <= 0 {
			p = math.SmallestNonzeroFloat64
		}
		if p >= 1 {
			p = 1 - 1e-16
		}
		return []float64{f.m.quantile(p)}
	}
	// Floating point slack pushed u past the last interval; sample its top.
	ivs := f.keep.Intervals()
	last := ivs[len(ivs)-1]
	hi := last.Hi
	if math.IsInf(hi, 1) {
		hi = f.m.quantile(1 - 1e-12)
	}
	return []float64{hi}
}

func (f Floored) String() string {
	return fmt.Sprintf("[%s, Floor{%s}]", f.m.String(), f.keep.Complement().String())
}
