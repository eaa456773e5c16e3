package dist

import (
	"math"

	"probdb/internal/numeric"
	"probdb/internal/region"
)

// univariate is the allocation-free face of a one-dimensional pdf: the
// interval mass and support bound that MassIn and Support otherwise answer
// through a one-element region.Box. A family that can also hold joints
// implements it for its one-dimensional instances only — callers check
// Dim() first — and its MassIn delegates here for them, so CDF,
// MassInterval and MassIn agree to the bit.
type univariate interface {
	massIv(iv region.Interval) float64
	supportIv() region.Interval
}

// massIv is d.MassIn(region.Box{iv}) for a one-dimensional d, without the
// box where the family allows.
func massIv(d Dist, iv region.Interval) float64 {
	if u, ok := d.(univariate); ok {
		return u.massIv(iv)
	}
	return d.MassIn(region.Box{iv})
}

// SupportInterval returns Support()[0] of the one-dimensional d, without
// allocating for the closed-form and generic families. It panics unless d
// is one-dimensional.
func SupportInterval(d Dist) region.Interval {
	if d.Dim() != 1 {
		panic("dist: SupportInterval requires a one-dimensional distribution")
	}
	if u, ok := d.(univariate); ok {
		return u.supportIv()
	}
	return d.Support()[0]
}

// Quantile returns the q-quantile of the one-dimensional d as an x-bound:
// the smallest float64 x with CDF(d, x) >= q·d.Mass(). The contract is exact
// against CDF as computed, with no tolerance: CDF(d, x) >= q·Mass() and
// CDF(d, Nextafter(x, -Inf)) < q·Mass(). It returns -Inf when q·Mass() <= 0
// (every x qualifies) and +Inf when no x reaches q·Mass() (q > 1, or a
// truncated discrete tail). It panics unless d is one-dimensional.
//
// Each family starts from its closed form — contModel.quantile, the support
// point where the cumulative mass first reaches the target, the bucket walk
// of a 1-D histogram — and polishes that start to the ulp by bisecting
// float64 bit patterns in a small bracket. Other pdfs bisect from their
// support; that also ends at the ulp, only with more CDF evaluations.
func Quantile(d Dist, q float64) float64 {
	if d.Dim() != 1 {
		panic("dist: Quantile requires a one-dimensional distribution")
	}
	target := q * d.Mass()
	if !(target > 0) {
		return math.Inf(-1)
	}
	cdf := func(x float64) float64 { return CDF(d, x) }
	switch v := d.(type) {
	case symCont:
		if q < 1 {
			x := v.m.quantile(q)
			return search(cdf, target, x, x)
		}
	case *Discrete:
		return v.quantile(target)
	case symDisc:
		return v.backing.quantile(target)
	case *Grid:
		x := v.quantileStart(target)
		return search(cdf, target, x, x)
	}
	sup := SupportInterval(d)
	return search(cdf, target, sup.Lo, sup.Hi)
}

// QuantileGrid is a fixed probability grid whose quantiles are wanted for
// many pdfs — an index's x-bounds. It computes the standard normal quantile
// of each grid point once, which is where every Gaussian's quantile starts.
type QuantileGrid struct {
	q, z []float64
}

// NewQuantileGrid returns the grid of the given probabilities.
func NewQuantileGrid(q ...float64) *QuantileGrid {
	g := &QuantileGrid{q: q, z: make([]float64, len(q))}
	for i, p := range q {
		if p > 0 && p < 1 {
			g.z[i] = numeric.NormalQuantile(p, 0, 1)
		}
	}
	return g
}

// Quantiles writes Quantile(d, q) for each grid point q to out, which must
// have one slot per point. A Gaussian starts each polish from µ + σ·z, the
// very float Quantile starts from, so the results are Quantile's to the bit.
func (g *QuantileGrid) Quantiles(d Dist, out []float64) {
	sc, ok := d.(symCont)
	gm, gauss := Gaussian{}, false
	if ok {
		gm, gauss = sc.m.(Gaussian)
	}
	cdf := func(x float64) float64 { return CDF(d, x) }
	for i, p := range g.q {
		if gauss && p > 0 && p < 1 {
			x := gm.Mu + gm.Sigma*g.z[i]
			out[i] = search(cdf, p, x, x)
			continue
		}
		out[i] = Quantile(d, p)
	}
}

// quantile is Quantile of a one-dimensional Discrete: the first support
// point whose running mass — the very sum CDF's prefix walk produces —
// reaches target. No polish: CDF is a step function that jumps there.
func (d *Discrete) quantile(target float64) float64 {
	for i, c := range d.cum {
		if numeric.Clamp01(c) >= target {
			return d.pts[i].X[0]
		}
	}
	return math.Inf(1)
}

// quantileStart is the closed-form start of a one-dimensional Grid's
// quantile: walk the cumulative bucket masses to the bucket that reaches
// target and interpolate linearly inside it (mass is uniform within a
// continuous cell), or take the point of a discrete cell.
func (g *Grid) quantileStart(target float64) float64 {
	a := g.axes[0]
	var s numeric.KahanSum
	for i, w := range g.w {
		if w == 0 {
			continue
		}
		before := s.Value()
		s.Add(w)
		if s.Value() < target {
			continue
		}
		lo, hi := a.bounds(i)
		return lo + (target-before)/w*(hi-lo)
	}
	return g.supportIv().Hi
}

// infKey is key(+Inf); key(-Inf) is its negation.
const infKey = 0x7FF0000000000000

// key maps a float64 to an int64 in the same order (−0 and +0 share 0), so
// consecutive keys are consecutive representable floats.
func key(x float64) int64 {
	b := int64(math.Float64bits(x))
	if b < 0 {
		return -(b & math.MaxInt64)
	}
	return b
}

// unkey inverts key.
func unkey(k int64) float64 {
	if k < 0 {
		return -math.Float64frombits(uint64(-k))
	}
	return math.Float64frombits(uint64(k))
}

// search returns the smallest float64 x with cdf(x) >= target for a
// non-decreasing cdf, from the bracket guess [lo, hi]: it first moves the
// ends outward — doubling the stride, counted in representable floats —
// until cdf(lo) < target <= cdf(hi), then bisects the floats in between
// until the two ends are adjacent. A start within k ulps of the answer
// costs about 2·log2(k) + 2 evaluations; a bracket as wide as a support
// about 64.
func search(cdf func(float64) float64, target, lo, hi float64) float64 {
	a, b := key(lo), key(hi)
	bReaches := false // cdf(b) >= target is known
	for step := uint64(1); cdf(unkey(a)) >= target; step <<= 1 {
		if a == -infKey {
			return math.Inf(-1)
		}
		b, bReaches = a, true
		if uint64(a)+infKey <= step { // distance to -Inf, in uint64 so it cannot overflow
			a = -infKey
		} else {
			a -= int64(step)
		}
	}
	if !bReaches && (b == a || cdf(unkey(b)) < target) {
		for step := uint64(1); ; step <<= 1 {
			if b == infKey {
				return math.Inf(1)
			}
			a = b
			if infKey-uint64(b) <= step {
				b = infKey
			} else {
				b += int64(step)
			}
			if cdf(unkey(b)) >= target {
				break
			}
		}
	}
	for n := uint64(b) - uint64(a); n > 1; n = uint64(b) - uint64(a) {
		m := a + int64(n/2)
		if cdf(unkey(m)) >= target {
			b = m
		} else {
			a = m
		}
	}
	return unkey(b)
}
