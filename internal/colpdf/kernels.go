package colpdf

import (
	"math"

	"probdb/internal/numeric"
	"probdb/internal/region"
)

// This file holds the vectorized batch kernels. Each kernel switches on
// family once per run and then loops over the flat parameter lanes. The
// per-element arithmetic is a verbatim transcription of the scalar reference
// in internal/dist — intervalMassCont for the continuous families,
// Discrete.MassIn (Kahan summation over Interval.Contains) for the discrete
// ones, Grid.MassIn called directly for grids — so the floats coming out are
// bit-identical to the per-tuple interface path, including the NaN and ±Inf
// corner semantics that region.Interval.Empty/Contains define.

// MassIntervalVec writes Pr(X ∈ [lo, hi]) for each tuple in [from, to) into
// out (out[i-from] for tuple i). It is the batch form of dist.MassInterval.
func (b *Block) MassIntervalVec(from, to int, lo, hi float64, out []float64) {
	b.EvalInterval(from, to, region.Closed(lo, hi), out, from)
}

// CDFVec writes Pr(X ≤ x) for each tuple in [from, to) into out. It is the
// batch form of dist.CDF.
func (b *Block) CDFVec(from, to int, x float64, out []float64) {
	b.EvalInterval(from, to, region.Below(x, false), out, from)
}

// MassInBoxVec writes the mass inside a one-dimensional box for each tuple
// in [from, to) into out. It is the batch form of Dist.MassIn over the
// block's marginal.
func (b *Block) MassInBoxVec(from, to int, box region.Box, out []float64) {
	if len(box) != 1 {
		panic("colpdf: MassInBoxVec box dimensionality mismatch")
	}
	b.EvalInterval(from, to, box[0], out, from)
}

// MassVec copies the per-tuple existence masses for [from, to) into out —
// the batch form of Dist.Mass(), a lane read.
func (b *Block) MassVec(from, to int, out []float64) {
	copy(out, b.mass[from:to])
}

// RunRange returns the half-open run index range [r0, r1) overlapping the
// tuple range [from, to) — the unit the morsel pool parallelizes over. The
// first run is found by binary search: a morsel is a few rows of a block
// that may hold a hundred short runs.
func (b *Block) RunRange(from, to int) (r0, r1 int) {
	for hi := len(b.runs); r0 < hi; {
		m := int(uint(r0+hi) >> 1)
		if b.runs[m].Start+b.runs[m].N <= from {
			r0 = m + 1
		} else {
			hi = m
		}
	}
	r1 = r0
	for r1 < len(b.runs) && b.runs[r1].Start < to {
		r1++
	}
	return r0, r1
}

// EvalIntervalRun evaluates one run's tuples restricted to [from, to),
// writing Pr(X ∈ iv) into out[i-off] for tuple i. Disjoint runs write
// disjoint out regions, so workers evaluate runs concurrently without
// synchronization.
func (b *Block) EvalIntervalRun(r, from, to int, iv region.Interval, out []float64, off int) {
	run := &b.runs[r]
	lo, hi := max(from, run.Start), min(to, run.Start+run.N)
	if lo >= hi {
		return
	}
	switch run.Fam {
	case FamGaussian, FamUniform, FamExponential:
		evalContinuous(run, lo, hi, iv, out, off)
	case FamPoisson, FamGeometric:
		evalDiscrete(run, lo, hi, iv, out, off)
	case FamGrid:
		evalGrid(run, lo, hi, iv, out, off)
	default:
		b.evalFallback(run, lo, hi, iv, out, off)
	}
}

// EvalInterval evaluates Pr(X ∈ iv) for every tuple in [from, to), writing
// into out[i-off] for tuple i. Overlapping runs evaluate sequentially;
// morsel workers hand each other disjoint [from, to) ranges, so the same
// call serves both the serial and the parallel drivers.
func (b *Block) EvalInterval(from, to int, iv region.Interval, out []float64, off int) {
	r0, r1 := b.RunRange(from, to)
	for r := r0; r < r1; r++ {
		b.EvalIntervalRun(r, from, to, iv, out, off)
	}
}

// evalContinuous is the flat-lane transcription of intervalMassCont: empty
// interval → 0, infinite endpoints pin the cdf at 0/1, result clamped.
// Tuples repeating the previous tuple's parameters reuse its result.
func evalContinuous(run *Run, lo, hi int, iv region.Interval, out []float64, off int) {
	if iv.Empty() {
		for i := lo; i < hi; i++ {
			out[i-off] = 0
		}
		return
	}
	loInf := math.IsInf(iv.Lo, -1)
	hiInf := math.IsInf(iv.Hi, 1)
	switch run.Fam {
	case FamGaussian:
		mu, sg := run.Lanes[0], run.Lanes[1]
		for i := lo; i < hi; i++ {
			j := i - run.Start
			if i > lo && mu[j] == mu[j-1] && sg[j] == sg[j-1] {
				out[i-off] = out[i-off-1]
				continue
			}
			cl, ch := 0.0, 1.0
			if !loInf {
				cl = numeric.NormalCDF(iv.Lo, mu[j], sg[j])
			}
			if !hiInf {
				ch = numeric.NormalCDF(iv.Hi, mu[j], sg[j])
			}
			out[i-off] = numeric.Clamp01(ch - cl)
		}
	case FamUniform:
		ul, uh := run.Lanes[0], run.Lanes[1]
		for i := lo; i < hi; i++ {
			j := i - run.Start
			if i > lo && ul[j] == ul[j-1] && uh[j] == uh[j-1] {
				out[i-off] = out[i-off-1]
				continue
			}
			cl, ch := 0.0, 1.0
			if !loInf {
				cl = uniformCDF(iv.Lo, ul[j], uh[j])
			}
			if !hiInf {
				ch = uniformCDF(iv.Hi, ul[j], uh[j])
			}
			out[i-off] = numeric.Clamp01(ch - cl)
		}
	case FamExponential:
		rate := run.Lanes[0]
		for i := lo; i < hi; i++ {
			j := i - run.Start
			if i > lo && rate[j] == rate[j-1] {
				out[i-off] = out[i-off-1]
				continue
			}
			cl, ch := 0.0, 1.0
			if !loInf {
				cl = expCDF(iv.Lo, rate[j])
			}
			if !hiInf {
				ch = expCDF(iv.Hi, rate[j])
			}
			out[i-off] = numeric.Clamp01(ch - cl)
		}
	}
}

// uniformCDF is Uniform.cdf from internal/dist, transcribed so the lane loop
// needs no value-boxing into the contModel interface.
func uniformCDF(x, lo, hi float64) float64 {
	switch {
	case x <= lo:
		return 0
	case x >= hi:
		return 1
	default:
		return (x - lo) / (hi - lo)
	}
}

// expCDF is Exponential.cdf from internal/dist.
func expCDF(x, rate float64) float64 {
	if x <= 0 {
		return 0
	}
	return -math.Expm1(-rate * x)
}

// evalDiscrete walks the dictionary-shared point support exactly as
// Discrete.MassIn does: Kahan summation over the points the interval
// contains, clamped. Each dictionary slot is evaluated once per call when
// the dictionary is small relative to the run; otherwise tuples repeating
// the previous slot reuse its result.
func evalDiscrete(run *Run, lo, hi int, iv region.Interval, out []float64, off int) {
	memo := len(run.Pts) <= 64 || len(run.Pts)*4 <= run.N
	var vals []float64
	var seen []bool
	if memo {
		vals = make([]float64, len(run.Pts))
		seen = make([]bool, len(run.Pts))
	}
	for i := lo; i < hi; i++ {
		j := i - run.Start
		slot := run.DictIdx[j]
		if memo && seen[slot] {
			out[i-off] = vals[slot]
			continue
		}
		if !memo && i > lo && slot == run.DictIdx[j-1] {
			out[i-off] = out[i-off-1]
			continue
		}
		var s numeric.KahanSum
		for _, p := range run.Pts[slot] {
			if iv.Contains(p.X[0]) {
				s.Add(p.P)
			}
		}
		v := numeric.Clamp01(s.Value())
		out[i-off] = v
		if memo {
			vals[slot], seen[slot] = v, true
		}
	}
}

// evalGrid asks each dictionary-shared grid for its own mass — the same
// Grid.MassIn method the scalar path calls, so equality is by construction.
// The box is hoisted once per call.
func evalGrid(run *Run, lo, hi int, iv region.Interval, out []float64, off int) {
	box := region.Box{iv}
	vals := make([]float64, len(run.Grids))
	seen := make([]bool, len(run.Grids))
	for i := lo; i < hi; i++ {
		slot := run.DictIdx[i-run.Start]
		if !seen[slot] {
			vals[slot], seen[slot] = run.Grids[slot].MassIn(box), true
		}
		out[i-off] = vals[slot]
	}
}

// evalFallback is the per-tuple interface path for odd distributions,
// mirroring Table.DistOf + dist.MassInterval: multi-dimensional pdfs reduce
// to the block's marginal dimension, then answer MassIn over the hoisted
// box.
func (b *Block) evalFallback(run *Run, lo, hi int, iv region.Interval, out []float64, off int) {
	box := region.Box{iv}
	for i := lo; i < hi; i++ {
		d := run.FB[i-run.Start]
		if d.Dim() != 1 {
			d = d.Marginal([]int{b.dim})
		}
		out[i-off] = d.MassIn(box)
	}
}
