package colpdf

import (
	"math"

	"probdb/internal/numeric"
	"probdb/internal/region"
)

// This file holds the vectorized batch kernels. Each kernel switches on
// family once per run and then loops over the block-wide lanes, indexed by
// row. The per-element arithmetic is a verbatim transcription of the scalar
// reference in internal/dist — intervalMassCont for the continuous families,
// Discrete.massIv (Kahan summation over Interval.Contains, then clamped) for
// the point lane and the dictionary-shared supports, Grid.MassIn called
// directly for grids — so the floats coming out are bit-identical to the
// per-tuple interface path, including the NaN and ±Inf corner semantics that
// region.Interval.Empty/Contains define. Over a single interval,
// Discrete.floorMass sums the same points in the same order, so the lanes
// also serve pending floor masses (dist.FloorMass).
//
// EvalIntervalBounded serves a threshold test "mass op p": a Gaussian row
// whose interval reaches less than z = ThresholdZ(p) standard deviations
// past its mean on either side holds mass below p, which the tail bound
// decides without a CDF.

// MassIntervalVec writes Pr(X ∈ [lo, hi]) for each tuple in [from, to) into
// out (out[i-from] for tuple i). It is the batch form of dist.MassInterval.
func (b *Block) MassIntervalVec(from, to int, lo, hi float64, out []float64) {
	b.evalRange(from, to, region.Closed(lo, hi), math.Inf(-1), out)
}

// CDFVec writes Pr(X ≤ x) for each of the block's tuples into out. It is
// the batch form of dist.CDF.
func (b *Block) CDFVec(x float64, out []float64) {
	b.EvalInterval(region.Below(x, false), out)
}

// MassInBoxVec writes the mass inside a one-dimensional box for each tuple
// in [from, to) into out. It is the batch form of Dist.MassIn over the
// block's marginal.
func (b *Block) MassInBoxVec(from, to int, box region.Box, out []float64) {
	if len(box) != 1 {
		panic("colpdf: MassInBoxVec box dimensionality mismatch")
	}
	b.evalRange(from, to, box[0], math.Inf(-1), out)
}

// MassVec copies the per-tuple existence masses for [from, to) into out —
// the batch form of Dist.Mass(), a lane read.
func (b *Block) MassVec(from, to int, out []float64) {
	copy(out, b.mass[from:to])
}

// evalRange evaluates Pr(X ∈ iv) with tail bound z (-Inf: none) for the
// tuples in [from, to), writing into out[i-from] for tuple i, run by run.
func (b *Block) evalRange(from, to int, iv region.Interval, z float64, out []float64) {
	for r := range b.runs {
		b.evalRun(r, from, to, iv, z, out, from)
	}
}

// EvalIntervalRun evaluates one run's tuples, writing Pr(X ∈ iv) into
// out[i] for tuple i; out holds one entry per tuple of the block.
func (b *Block) EvalIntervalRun(r int, iv region.Interval, out []float64) {
	b.evalRun(r, 0, b.n, iv, math.Inf(-1), out[:b.n], 0)
}

// EvalInterval evaluates Pr(X ∈ iv) for every tuple of the block, writing
// into out[i] for tuple i, run by run.
func (b *Block) EvalInterval(iv region.Interval, out []float64) {
	b.EvalIntervalBounded(iv, math.Inf(-1), out)
}

// EvalIntervalBounded is EvalInterval for a caller that only compares each
// mass with a threshold p > 0 and passes z = ThresholdZ(p). A Gaussian row
// with iv.Hi−µ < zσ or µ−iv.Lo < zσ has mass at most min(Φ(z_hi), 1−Φ(z_lo))
// < p, and reads 0 without a CDF: a comparison with p decides 0 as it
// decides any mass below p. Every other row is evaluated exactly.
func (b *Block) EvalIntervalBounded(iv region.Interval, z float64, out []float64) {
	b.evalRange(0, b.n, iv, z, out[:b.n])
}

// ThresholdZ returns the tail bound EvalIntervalBounded takes for a
// threshold p: Φ⁻¹ of p less a safety margin of p·2⁻³⁰ and 2⁻⁴⁸, which
// covers the rounding of the quantile and of the CDF difference the kernel
// would compute, so a row the bound decides has computed mass below p too.
// It returns -Inf, which decides no row, unless 0 < p < 1 and p exceeds the
// margin.
func ThresholdZ(p float64) float64 {
	pl := p*(1-0x1p-30) - 0x1p-48
	if !(pl > 0 && p < 1) {
		return math.Inf(-1)
	}
	return numeric.NormalQuantile(pl, 0, 1)
}

// evalRun evaluates run r over [from, to) with tail bound z (-Inf: none).
func (b *Block) evalRun(r, from, to int, iv region.Interval, z float64, out []float64, off int) {
	run := &b.runs[r]
	lo, hi := max(from, run.Start), min(to, run.Start+run.N)
	if lo >= hi {
		return
	}
	switch run.Fam {
	case FamGaussian, FamUniform, FamExponential:
		b.evalContinuous(run.Fam, lo, hi, iv, z, out, off)
	case FamDiscrete:
		b.evalPoints(lo, hi, iv, out, off)
	case FamPoisson, FamGeometric:
		evalDiscrete(run, lo, hi, iv, out, off)
	case FamGrid:
		evalGrid(run, lo, hi, iv, out, off)
	default:
		b.evalFallback(run, lo, hi, iv, out, off)
	}
}

// evalContinuous is the flat-lane transcription of intervalMassCont: empty
// interval → 0, infinite endpoints pin the cdf at 0/1, result clamped.
// Tuples repeating the previous tuple's parameters reuse its result, and
// Gaussian rows the tail bound z decides read 0.
func (b *Block) evalContinuous(fam Family, lo, hi int, iv region.Interval, z float64, out []float64, off int) {
	if iv.Empty() {
		for i := lo; i < hi; i++ {
			out[i-off] = 0
		}
		return
	}
	loInf := math.IsInf(iv.Lo, -1)
	hiInf := math.IsInf(iv.Hi, 1)
	switch fam {
	case FamGaussian:
		mu, sg := b.p0, b.p1
		for i := lo; i < hi; i++ {
			if i > lo && mu[i] == mu[i-1] && sg[i] == sg[i-1] {
				out[i-off] = out[i-off-1]
				continue
			}
			if zs := z * sg[i]; iv.Hi-mu[i] < zs || mu[i]-iv.Lo < zs {
				out[i-off] = 0
				continue
			}
			cl, ch := 0.0, 1.0
			if !loInf {
				cl = numeric.NormalCDF(iv.Lo, mu[i], sg[i])
			}
			if !hiInf {
				ch = numeric.NormalCDF(iv.Hi, mu[i], sg[i])
			}
			out[i-off] = numeric.Clamp01(ch - cl)
		}
	case FamUniform:
		ul, uh := b.p0, b.p1
		for i := lo; i < hi; i++ {
			if i > lo && ul[i] == ul[i-1] && uh[i] == uh[i-1] {
				out[i-off] = out[i-off-1]
				continue
			}
			cl, ch := 0.0, 1.0
			if !loInf {
				cl = uniformCDF(iv.Lo, ul[i], uh[i])
			}
			if !hiInf {
				ch = uniformCDF(iv.Hi, ul[i], uh[i])
			}
			out[i-off] = numeric.Clamp01(ch - cl)
		}
	case FamExponential:
		rate := b.p0
		for i := lo; i < hi; i++ {
			if i > lo && rate[i] == rate[i-1] {
				out[i-off] = out[i-off-1]
				continue
			}
			cl, ch := 0.0, 1.0
			if !loInf {
				cl = expCDF(iv.Lo, rate[i])
			}
			if !hiInf {
				ch = expCDF(iv.Hi, rate[i])
			}
			out[i-off] = numeric.Clamp01(ch - cl)
		}
	}
}

// evalPoints is Discrete.massIv over the point lane: Kahan summation over
// the row's points the interval contains, in sorted order, clamped.
func (b *Block) evalPoints(lo, hi int, iv region.Interval, out []float64, off int) {
	for i := lo; i < hi; i++ {
		var s numeric.KahanSum
		for k := b.off[i]; k < b.off[i+1]; k++ {
			if iv.Contains(b.px[k]) {
				s.Add(b.pp[k])
			}
		}
		out[i-off] = numeric.Clamp01(s.Value())
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
// Discrete.massIv does: Kahan summation over the points the interval
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
// The box is hoisted once per call, and each slot is asked once: its mass is
// memoized in one scratch lane, NaN until asked, which stays on the stack
// for a dictionary of up to 64 grids. (A grid whose mass is NaN is asked
// again on each row, for the same answer.)
func evalGrid(run *Run, lo, hi int, iv region.Interval, out []float64, off int) {
	box := region.Box{iv}
	var stack [64]float64
	var vals []float64
	if n := len(run.Grids); n <= len(stack) {
		vals = stack[:n]
	} else {
		vals = make([]float64, n)
	}
	for i := range vals {
		vals[i] = math.NaN()
	}
	for i := lo; i < hi; i++ {
		slot := run.DictIdx[i-run.Start]
		if math.IsNaN(vals[slot]) {
			vals[slot] = run.Grids[slot].MassIn(box)
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
