package core

import (
	"errors"
	"fmt"
	"math"

	"probdb/internal/dist"
)

// AggOptions tunes probabilistic aggregation. The paper motivates exactly
// this trade-off (§I): "even in situations where the base uncertain data is
// discrete, some queries (e.g. aggregates) can produce results that are
// very expensive to represent using discrete pdfs ... the resulting
// uncertain attribute can have an exponential number of possible values. In
// such cases, one can save space as well as time by approximating with a
// continuous pdf." Exact discrete convolution runs while the support stays
// within MaxExactSupport; beyond it (and always for continuous inputs) the
// aggregate is the moment-matched Gaussian.
type AggOptions struct {
	// MaxExactSupport caps the support size of exact convolution. Zero
	// means DefaultAggOptions.MaxExactSupport.
	MaxExactSupport int
}

// DefaultAggOptions is the default aggregation configuration.
var DefaultAggOptions = AggOptions{MaxExactSupport: 4096}

func (o AggOptions) normalized() AggOptions {
	if o.MaxExactSupport <= 0 {
		o.MaxExactSupport = DefaultAggOptions.MaxExactSupport
	}
	return o
}

// ErrOverflow reports an aggregate whose moments leave float64 although
// every row's pdf is within its family's bounds.
var ErrOverflow = errors.New("core: aggregate overflows float64")

// AggregateSum returns the distribution of Σ attr over the table under
// possible worlds semantics: every tuple contributes its attribute value in
// the worlds where it exists and nothing where it does not (partial pdfs),
// with tuples independent (base-table assumption, Definition 2). The result
// is an exact Discrete while the support stays small, otherwise the
// moment-matched Gaussian of the paper's continuous-approximation proposal.
// Certain numeric attributes contribute point masses.
func (t *Table) AggregateSum(attr string, opts AggOptions) (dist.Dist, error) {
	opts = opts.normalized()
	contribs, err := t.sumContributions(attr)
	if err != nil {
		return nil, err
	}
	if len(contribs) == 0 {
		return dist.Unit(0), nil
	}

	// Moments of each contribution (existence-weighted, absent = 0). The
	// variance E[X²] − E[X]² is summed as the equal m·v + m(1−m)·µ², which
	// does not cancel away a small variance under a large mean.
	var mean, variance float64
	for _, c := range contribs {
		m := c.Mass()
		cm := c.Mean(0)
		mean += m * cm
		variance += m*c.Variance(0) + m*(1-m)*cm*cm
	}
	if math.IsNaN(mean) || math.IsInf(mean, 0) || math.IsNaN(variance) || math.IsInf(variance, 0) {
		return nil, fmt.Errorf("%w: SUM(%s) has mean %v, variance %v", ErrOverflow, attr, mean, variance)
	}

	// Try exact convolution of discrete contributions.
	exact := allDiscrete(contribs)
	if exact != nil {
		acc := withAbsenceZero(exact[0])
		ok := true
		for _, c := range exact[1:] {
			acc = dist.ConvolveDiscrete(acc, withAbsenceZero(c))
			if len(acc.Points()) > opts.MaxExactSupport {
				ok = false
				break
			}
		}
		if ok {
			return acc, nil
		}
	}
	// The Gaussian also needs E[S²] = mean² + variance finite. Past that
	// test its rule refuses only a variance that is zero or too narrow to
	// bin at the mean: a point mass.
	if math.IsInf(mean*mean+variance, 0) {
		return nil, fmt.Errorf("%w: SUM(%s) has mean %v, variance %v", ErrOverflow, attr, mean, variance)
	}
	if g, err := dist.BuildGaussian(mean, math.Sqrt(variance)); err == nil {
		return g, nil
	}
	return dist.Unit(mean), nil
}

// AggregateCount returns the distribution of the number of existing tuples:
// a Poisson–binomial over the tuples' existence probabilities, computed by
// exact dynamic programming up to MaxExactSupport tuples and by Gaussian
// approximation beyond.
func (t *Table) AggregateCount(opts AggOptions) (dist.Dist, error) {
	opts = opts.normalized()
	probs := make([]float64, 0, len(t.tuples))
	for _, tup := range t.tuples {
		probs = append(probs, t.ExistenceProb(tup))
	}
	n := len(probs)
	if n == 0 {
		return dist.Unit(0), nil
	}
	if n+1 <= opts.MaxExactSupport {
		vals := make([]float64, 0, n+1)
		masses := make([]float64, 0, n+1)
		for k, p := range poissonBinomial(probs) {
			if p > 0 {
				vals = append(vals, float64(k))
				masses = append(masses, p)
			}
		}
		return dist.NewDiscrete(vals, masses), nil
	}
	var mean, variance float64
	for _, p := range probs {
		mean += p
		variance += p * (1 - p)
	}
	if variance <= 0 {
		return dist.Unit(mean), nil
	}
	return dist.NewGaussian(mean, math.Sqrt(variance)), nil
}

// poissonBinomial returns P[count = k] for k = 0..len(probs), by dynamic
// programming over the rows' existence probabilities. A row that exists for
// certain only shifts the array up by one, exactly (x·0 + y·1 = y, and every
// entry is ≥ +0), and a row with probability 0 changes nothing, so only the
// uncertain rows run the quadratic update and the certain ones shift the
// result once at the end. Each update stops at the rows folded in so far: the
// entries above are still zero, and stay zero bit for bit.
func poissonBinomial(probs []float64) []float64 {
	pk := make([]float64, len(probs)+1)
	pk[0] = 1
	certain, m := 0, 0
	for _, p := range probs {
		if p == 1 {
			certain++
			continue
		}
		if p == 0 {
			continue
		}
		q := 1 - p
		m++
		for k := m; k >= 1; k-- {
			pk[k] = pk[k]*q + pk[k-1]*p
		}
		pk[0] *= q
	}
	if certain > 0 {
		copy(pk[certain:], pk[:m+1])
		clear(pk[:certain])
	}
	return pk
}

// AggregateAvg returns the distribution of (Σ attr)/N with N the table's
// tuple count — the fixed-denominator average. (A random-denominator
// average SUM/COUNT has no closed representation in the model; the paper's
// aggregate discussion concerns representation size, which the fixed form
// already exhibits.)
func (t *Table) AggregateAvg(attr string, opts AggOptions) (dist.Dist, error) {
	s, err := t.AggregateSum(attr, opts)
	if err != nil {
		return nil, err
	}
	n := len(t.tuples)
	if n == 0 {
		return s, nil
	}
	return dist.Affine(s, 1/float64(n), 0), nil
}

// sumContributions returns one 1-D distribution per tuple: the marginal of
// the attribute (certain values become point masses) with the tuple's
// *other* dependency sets' masses folded in, so that each contribution's
// total mass is the tuple's existence probability.
func (t *Table) sumContributions(attr string) ([]dist.Dist, error) {
	col, ok := t.schema.Lookup(attr)
	if !ok {
		return nil, fmt.Errorf("core: unknown column %q", attr)
	}
	if !col.Type.Numeric() {
		return nil, fmt.Errorf("core: cannot aggregate non-numeric column %q", attr)
	}
	out := make([]dist.Dist, 0, len(t.tuples))
	for _, tup := range t.tuples {
		var d dist.Dist
		otherMass := 1.0
		if col.Uncertain {
			di := t.depOf(t.idOf(attr))
			node := tup.nodes[di]
			dim := t.deps[di].dimOf(t.idOf(attr))
			if node.Dist.Dim() == 1 {
				d = node.Dist
			} else {
				d = node.Dist.Marginal([]int{dim})
			}
			for j, n := range tup.nodes {
				if j != di {
					otherMass *= n.Dist.Mass()
				}
			}
		} else {
			v, _ := t.Value(tup, attr)
			f, numeric := v.AsFloat()
			if !numeric {
				return nil, fmt.Errorf("core: NULL/non-numeric value in certain column %q", attr)
			}
			d = dist.Unit(f)
			otherMass = t.ExistenceProb(tup)
		}
		if otherMass < 1 {
			d = scaleMass(d, otherMass)
		}
		out = append(out, d)
	}
	return out, nil
}

// scaleMass multiplies a distribution's total mass by s in (0, 1] by
// folding s into a zero-dimensional... there is no such thing, so it scales
// via the generic representations.
func scaleMass(d dist.Dist, s float64) dist.Dist {
	switch v := dist.Collapse(d, dist.DefaultOptions).(type) {
	case *dist.Discrete:
		pts := make([]dist.Point, len(v.Points()))
		for i, p := range v.Points() {
			pts[i] = dist.Point{X: p.X, P: p.P * s}
		}
		return dist.NewDiscreteJoint(1, pts)
	case *dist.Grid:
		w := make([]float64, len(v.Weights()))
		for i, x := range v.Weights() {
			w[i] = x * s
		}
		return dist.NewGrid(v.Axes(), w)
	}
	return d
}

// allDiscrete collapses every contribution to *Discrete, or returns nil if
// any is continuous.
func allDiscrete(ds []dist.Dist) []*dist.Discrete {
	out := make([]*dist.Discrete, len(ds))
	for i, d := range ds {
		dd, ok := dist.Collapse(d, dist.DefaultOptions).(*dist.Discrete)
		if !ok {
			return nil
		}
		out[i] = dd
	}
	return out
}

// withAbsenceZero completes a partial contribution by assigning the missing
// mass to the value 0 (the tuple contributes nothing to the sum in worlds
// where it does not exist).
func withAbsenceZero(d *dist.Discrete) *dist.Discrete {
	miss := 1 - d.Mass()
	if miss <= 1e-15 {
		return d
	}
	pts := make([]dist.Point, 0, len(d.Points())+1)
	pts = append(pts, d.Points()...)
	pts = append(pts, dist.Point{X: []float64{0}, P: miss})
	return dist.NewDiscreteJoint(1, pts)
}
