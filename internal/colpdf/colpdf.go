// Package colpdf is the columnar batch representation of uncertain columns.
// A Block holds one distribution per tuple, re-organized for vectorized
// evaluation: consecutive tuples of the same closed-form family form a Run
// whose parameters live in contiguous float lanes (Gaussian mu/sigma,
// Uniform lo/hi, Exponential rate), discrete families (Poisson, Geometric)
// and grids dictionary-share their expanded representation across tuples
// with equal parameters, and anything without a closed form lands in a
// per-tuple fallback slot — so correctness never depends on encodability.
//
// The batch kernels (kernels.go) switch on family once per run and then loop
// over the flat lanes with no interface dispatch and no per-tuple
// allocation. They replicate the scalar reference arithmetic of
// internal/dist operation for operation — same cdf calls, same Kahan
// summation, same clamping, same NaN/±Inf handling through
// region.Interval.Empty/Contains — so vectorized results are bit-identical
// to the per-tuple path. The differential suites in this package and in
// internal/core enforce that contract.
package colpdf

import (
	"math"

	"probdb/internal/dist"
)

// Family classifies the distributions a run can hold.
type Family uint8

const (
	// FamFallback marks a run of per-tuple dist.Dist values evaluated
	// through the ordinary interface — the correctness net under every
	// distribution the encoder has no columnar form for.
	FamFallback Family = iota
	FamGaussian
	FamUniform
	FamExponential
	FamPoisson
	FamGeometric
	FamGrid
	famCount
)

// String returns the family name used in EXPLAIN kernel-strategy lines.
func (f Family) String() string {
	switch f {
	case FamFallback:
		return "fallback"
	case FamGaussian:
		return "gaussian"
	case FamUniform:
		return "uniform"
	case FamExponential:
		return "exponential"
	case FamPoisson:
		return "poisson"
	case FamGeometric:
		return "geometric"
	case FamGrid:
		return "grid"
	}
	return "unknown"
}

// lanes returns how many per-tuple parameter lanes the family stores.
func (f Family) lanes() int {
	switch f {
	case FamGaussian, FamUniform:
		return 2
	case FamExponential, FamPoisson, FamGeometric:
		return 1
	}
	return 0
}

// dictionary reports whether the family shares an expanded representation
// across tuples with equal parameters.
func (f Family) dictionary() bool {
	return f == FamPoisson || f == FamGeometric || f == FamGrid
}

// Run is one maximal stretch of consecutive tuples sharing a family.
type Run struct {
	Fam   Family
	Start int // first tuple index (within the Block)
	N     int // tuple count

	// Lanes holds the per-tuple parameters, one slice per lane, each of
	// length N: Gaussian {mu, sigma}, Uniform {lo, hi}, Exponential {rate},
	// Poisson {lambda}, Geometric {p}. Empty for Grid and Fallback runs.
	Lanes [][]float64

	// DictIdx maps each tuple of a dictionary family to its dictionary
	// slot (length N). Tuples with equal parameters share a slot.
	DictIdx []int32
	// Params is the dictionary parameter per slot for Poisson (lambda) and
	// Geometric (p) runs — the canonical value the codec serializes.
	Params []float64
	// Pts is the shared enumerated point support per dictionary slot
	// (Poisson, Geometric). Enumeration from the parameter is
	// deterministic, so the shared points are element-wise identical to
	// what every tuple's own backing would hold.
	Pts [][]dist.Point
	// Grids is the shared distribution per dictionary slot (Grid family).
	Grids []*dist.Grid

	// FB holds the original per-tuple distributions of a fallback run.
	FB []dist.Dist
}

// Block is the columnar encoding of one uncertain column (one dependency
// set, one marginal dimension) over a contiguous range of tuples.
type Block struct {
	n   int
	dim int // marginal dimension a multi-dim fallback pdf is reduced to
	// mass is the per-tuple existence mass lane (the node's Dist.Mass()),
	// present for every tuple including fallback ones — so PROB(col)
	// thresholds vectorize regardless of family.
	mass []float64
	runs []Run
	// stats is StatsIn over the whole block, computed once when the block is
	// built: the filter kernels report it for every batch they evaluate.
	stats RangeStats
	// massPos records, once when the block is built, that every mass in the
	// lane is > 0 (a base table's always are).
	massPos bool
}

// Len returns the number of tuples encoded.
func (b *Block) Len() int { return b.n }

// Dim returns the marginal dimension fallback evaluation reduces to.
func (b *Block) Dim() int { return b.dim }

// NumRuns returns the number of runs.
func (b *Block) NumRuns() int { return len(b.runs) }

// RunAt returns run r. The returned pointer and its slices are read-only.
func (b *Block) RunAt(r int) *Run { return &b.runs[r] }

// Mass returns the per-tuple existence-mass lane. Read-only.
func (b *Block) Mass() []float64 { return b.mass }

// MassPositive reports whether every mass in the lane is > 0.
func (b *Block) MassPositive() bool { return b.massPos }

// finish computes what a block records once it is built: its whole-range
// statistics and whether its masses are all positive.
func (b *Block) finish() {
	b.stats = b.rangeStats(0, b.n)
	b.massPos = true
	for _, m := range b.mass {
		b.massPos = b.massPos && m > 0
	}
}

// MemCost estimates the bytes the block holds — the value charged against a
// govern budget by the encoding cache. Deliberately coarse but stable.
func (b *Block) MemCost() int64 {
	c := int64(64) + 8*int64(len(b.mass)) + 96*int64(len(b.runs))
	for i := range b.runs {
		r := &b.runs[i]
		for _, l := range r.Lanes {
			c += 8 * int64(len(l))
		}
		c += 4*int64(len(r.DictIdx)) + 8*int64(len(r.Params))
		for _, p := range r.Pts {
			c += 40 * int64(len(p))
		}
		c += 64 * int64(len(r.Grids))
		c += 16 * int64(len(r.FB))
	}
	return c
}

// classify maps one distribution to its family and parameters. pts/grid are
// set for dictionary families.
func classify(d dist.Dist) (fam Family, p0, p1 float64, pts []dist.Point, grid *dist.Grid) {
	switch m := dist.Model(d).(type) {
	case dist.Gaussian:
		return FamGaussian, m.Mu, m.Sigma, nil, nil
	case dist.Uniform:
		return FamUniform, m.Lo, m.Hi, nil, nil
	case dist.Exponential:
		return FamExponential, m.Rate, 0, nil, nil
	case dist.Poisson:
		// Parameters outside the codec's decode limits (maxLambda mirrors
		// the hardened dist decoder's enumeration bound) stay scalar so
		// Marshal and Unmarshal accept exactly the same blocks.
		if !(m.Lambda <= maxLambda) {
			break
		}
		return FamPoisson, m.Lambda, 0, dist.BackingPoints(d), nil
	case dist.Geometric:
		if !(m.P > minGeomP) {
			break
		}
		return FamGeometric, m.P, 0, dist.BackingPoints(d), nil
	}
	if g, ok := d.(*dist.Grid); ok && g.Dim() == 1 {
		return FamGrid, 0, 0, nil, g
	}
	return FamFallback, 0, 0, nil, nil
}

// Encode builds the columnar form of one distribution per tuple. dim is the
// marginal dimension fallback evaluation reduces multi-dimensional pdfs to
// (the same reduction Table.DistOf performs on the scalar path). mass, when
// non-nil, supplies the per-tuple existence-mass lane (length len(dists));
// when nil the lane is computed from each distribution directly.
func Encode(dists []dist.Dist, dim int, mass []float64) *Block {
	b := &Block{n: len(dists), dim: dim}
	if mass != nil {
		b.mass = append([]float64(nil), mass...)
	} else {
		b.mass = make([]float64, len(dists))
		for i, d := range dists {
			b.mass[i] = d.Mass()
		}
	}
	var cur *Run
	// dict maps a parameter (or grid identity) to its dictionary slot in
	// the current run. Keyed by the float bit pattern so -0 and NaN behave
	// as distinct stable keys.
	var dict map[uint64]int32
	var gdict map[*dist.Grid]int32
	for i, d := range dists {
		fam, p0, p1, pts, grid := classify(d)
		if cur == nil || cur.Fam != fam {
			b.runs = append(b.runs, Run{Fam: fam, Start: i})
			cur = &b.runs[len(b.runs)-1]
			if ln := fam.lanes(); ln > 0 {
				cur.Lanes = make([][]float64, ln)
			}
			dict, gdict = nil, nil
			if fam.dictionary() {
				dict = make(map[uint64]int32)
				gdict = make(map[*dist.Grid]int32)
			}
		}
		cur.N++
		switch fam {
		case FamGaussian, FamUniform:
			cur.Lanes[0] = append(cur.Lanes[0], p0)
			cur.Lanes[1] = append(cur.Lanes[1], p1)
		case FamExponential:
			cur.Lanes[0] = append(cur.Lanes[0], p0)
		case FamPoisson, FamGeometric:
			cur.Lanes[0] = append(cur.Lanes[0], p0)
			key := math.Float64bits(p0)
			slot, ok := dict[key]
			if !ok {
				slot = int32(len(cur.Pts))
				dict[key] = slot
				cur.Pts = append(cur.Pts, pts)
				cur.Params = append(cur.Params, p0)
			}
			cur.DictIdx = append(cur.DictIdx, slot)
		case FamGrid:
			slot, ok := gdict[grid]
			if !ok {
				slot = int32(len(cur.Grids))
				gdict[grid] = slot
				cur.Grids = append(cur.Grids, grid)
			}
			cur.DictIdx = append(cur.DictIdx, slot)
		default:
			cur.FB = append(cur.FB, d)
		}
	}
	b.finish()
	return b
}

// RangeStats summarizes how a tuple range [from, to) would evaluate:
// vectorized vs fallback tuple counts, the runs touched, and a bitmask of
// the families involved. EXPLAIN renders it as the kernel strategy.
type RangeStats struct {
	Vec, Fallback int
	Runs          int
	FamMask       uint16
}

// StatsIn returns RangeStats for the tuple range [from, to). The whole block
// is answered from the stats computed when it was built.
func (b *Block) StatsIn(from, to int) RangeStats {
	if from == 0 && to == b.n {
		return b.stats
	}
	return b.rangeStats(from, to)
}

// rangeStats walks the runs overlapping [from, to).
func (b *Block) rangeStats(from, to int) RangeStats {
	var s RangeStats
	for i := range b.runs {
		r := &b.runs[i]
		lo, hi := max(from, r.Start), min(to, r.Start+r.N)
		if lo >= hi {
			continue
		}
		s.Runs++
		s.FamMask |= 1 << r.Fam
		if r.Fam == FamFallback {
			s.Fallback += hi - lo
		} else {
			s.Vec += hi - lo
		}
	}
	return s
}

// FamilyNames expands a RangeStats family bitmask into sorted names.
func FamilyNames(mask uint16) []string {
	var out []string
	for f := Family(0); f < famCount; f++ {
		if mask&(1<<f) != 0 {
			out = append(out, f.String())
		}
	}
	return out
}
