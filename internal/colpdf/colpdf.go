// Package colpdf is the columnar batch representation of uncertain columns.
// A Block holds one distribution per tuple, re-organized for vectorized
// evaluation. Its parameter lanes are block-wide and indexed by row: two
// float lanes for the closed-form families (Gaussian mu/sigma, Uniform
// lo/hi, Exponential rate) and a point lane for discrete samplings — the
// generic one-dimensional *dist.Discrete of §II-A, full or partial — whose
// row i owns the points between two offsets. Consecutive tuples of one
// family form a Run, which records where it lies and keeps the slots the
// rarer families need: Poisson, Geometric and grids dictionary-share their
// expanded representation across tuples with equal parameters, and anything
// without a columnar form lands in a per-tuple fallback slot — so
// correctness never depends on encodability. A counting pass sizes every
// lane before the encoder fills them, so a block costs a constant number of
// allocations however many runs it has.
//
// The batch kernels (kernels.go) switch on family once per run and then loop
// over the lanes with no interface dispatch and no per-tuple allocation.
// They replicate the scalar reference arithmetic of internal/dist operation
// for operation — same cdf calls, same Kahan summation, same clamping, same
// NaN/±Inf handling through region.Interval.Empty/Contains — so vectorized
// results are bit-identical to the per-tuple path. The differential suites
// in this package and in internal/core enforce that contract.
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
	// FamDiscrete is a one-dimensional *dist.Discrete, full or partial,
	// whose points live in the block's point lane.
	FamDiscrete
	famCount
)

const (
	// maxLambda bounds the Poisson parameters a dictionary slot holds: the
	// enumerated support has about lambda points, and larger lambdas stay
	// scalar, as the hardened dist decoder bounds its enumeration.
	maxLambda = 1e4
	// minGeomP mirrors the dist decoder's denormal-p overflow guard.
	minGeomP = 1e-6
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
	case FamDiscrete:
		return "discrete"
	}
	return "unknown"
}

// params reports whether the family's rows store their parameters in the
// block's two float lanes.
func (f Family) params() bool {
	return f == FamGaussian || f == FamUniform || f == FamExponential
}

// Run is one maximal stretch of consecutive tuples sharing a family. The
// closed-form and discrete-sampling families keep their parameters in the
// block's lanes, so their runs are only a position; the rarer families keep
// their per-tuple storage in Slots.
type Run struct {
	Fam   Family
	Start int // first tuple index (within the Block)
	N     int // tuple count
	// Slots is nil for the lane families.
	*Slots
}

// Slots is what a dictionary or fallback run stores per tuple.
type Slots struct {
	// DictIdx maps each tuple of a dictionary family (Poisson, Geometric,
	// Grid) to its dictionary slot (length N). Tuples with equal parameters
	// share a slot.
	DictIdx []int32
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
	// p0 and p1 are the parameter lanes, indexed by row: Gaussian {mu,
	// sigma}, Uniform {lo, hi}, Exponential {rate, 0}, zero in rows of
	// other families. Both are nil when no row has a closed form.
	p0, p1 []float64
	// off, px and pp are the point lane of the FamDiscrete rows: row i's
	// points, in the pdf's sorted order, are (px[k], pp[k]) for k in
	// [off[i], off[i+1]). off has length n+1, and is nil when no row is
	// FamDiscrete.
	off    []int32
	px, pp []float64
	runs   []Run
	// stats is the block's RangeStats, computed once when the block is
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

// MemCost estimates the bytes the block holds — what a base table's
// encoded-bytes report sums. Deliberately coarse but stable.
func (b *Block) MemCost() int64 {
	c := int64(64) + 8*int64(len(b.mass)+len(b.p0)+len(b.p1)+len(b.px)+len(b.pp)) +
		4*int64(len(b.off)) + 32*int64(len(b.runs))
	for i := range b.runs {
		r := &b.runs[i]
		if r.Slots == nil {
			continue
		}
		c += 4 * int64(len(r.DictIdx))
		for _, p := range r.Pts {
			c += 40 * int64(len(p))
		}
		c += 64 * int64(len(r.Grids))
		c += 16 * int64(len(r.FB))
	}
	return c
}

// classify maps one distribution to its family and parameters (for Poisson
// and Geometric, the dictionary key). pts is set for the discrete-sampling
// and dictionary families, grid for grids.
func classify(d dist.Dist) (fam Family, p0, p1 float64, pts []dist.Point, grid *dist.Grid) {
	switch m := dist.Model(d).(type) {
	case dist.Gaussian:
		return FamGaussian, m.Mu, m.Sigma, nil, nil
	case dist.Uniform:
		return FamUniform, m.Lo, m.Hi, nil, nil
	case dist.Exponential:
		return FamExponential, m.Rate, 0, nil, nil
	case dist.Poisson:
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
	switch v := d.(type) {
	case *dist.Discrete:
		if v.Dim() == 1 {
			return FamDiscrete, 0, 0, v.Points(), nil
		}
	case *dist.Grid:
		if v.Dim() == 1 {
			return FamGrid, 0, 0, nil, v
		}
	}
	return FamFallback, 0, 0, nil, nil
}

// Encode builds the columnar form of one distribution per tuple. dim is the
// marginal dimension fallback evaluation reduces multi-dimensional pdfs to
// (the same reduction Table.DistOf performs on the scalar path). mass, when
// non-nil, supplies the per-tuple existence-mass lane (length len(dists));
// when nil the lane is computed from each distribution directly.
//
// A counting pass finds the runs and the sizes of the lanes first, so the
// mass, parameter and point lanes share one float allocation and the runs
// another; only dictionary and fallback runs allocate their own Slots.
func Encode(dists []dist.Dist, dim int, mass []float64) *Block {
	n := len(dists)
	nruns, npts, params, points := 0, 0, false, false
	prev := famCount
	for _, d := range dists {
		fam, _, _, pts, _ := classify(d)
		if fam != prev {
			nruns, prev = nruns+1, fam
		}
		params = params || fam.params()
		if fam == FamDiscrete {
			points = true
			npts += len(pts)
		}
	}
	np := 0
	if params {
		np = n
	}
	floats := make([]float64, n+2*np+2*npts)
	b := &Block{n: n, dim: dim, runs: make([]Run, 0, nruns)}
	b.mass, floats = floats[:n:n], floats[n:]
	if params {
		b.p0, b.p1, floats = floats[:n:n], floats[n:2*n:2*n], floats[2*n:]
	}
	b.px, b.pp = floats[:npts:npts], floats[npts:]
	if points {
		b.off = make([]int32, n+1)
	}
	if mass != nil {
		copy(b.mass, mass)
	} else {
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
	k := int32(0)
	for i, d := range dists {
		fam, p0, p1, pts, grid := classify(d)
		if cur == nil || cur.Fam != fam {
			b.runs = append(b.runs, Run{Fam: fam, Start: i})
			cur = &b.runs[len(b.runs)-1]
			if !fam.params() && fam != FamDiscrete {
				cur.Slots = &Slots{}
			}
			dict, gdict = nil, nil
		}
		cur.N++
		switch fam {
		case FamGaussian, FamUniform, FamExponential:
			b.p0[i], b.p1[i] = p0, p1
		case FamDiscrete:
			for _, p := range pts {
				b.px[k], b.pp[k] = p.X[0], p.P
				k++
			}
		case FamPoisson, FamGeometric:
			if dict == nil {
				dict = make(map[uint64]int32)
			}
			key := math.Float64bits(p0)
			slot, ok := dict[key]
			if !ok {
				slot = int32(len(cur.Pts))
				dict[key] = slot
				cur.Pts = append(cur.Pts, pts)
			}
			cur.DictIdx = append(cur.DictIdx, slot)
		case FamGrid:
			if gdict == nil {
				gdict = make(map[*dist.Grid]int32)
			}
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
		if points {
			b.off[i+1] = k
		}
	}
	b.finish()
	return b
}

// finish computes what a block records once it is built: its statistics
// and whether its masses are all positive.
func (b *Block) finish() {
	for i := range b.runs {
		r := &b.runs[i]
		b.stats.Runs++
		b.stats.FamMask |= 1 << r.Fam
		if r.Fam == FamFallback {
			b.stats.Fallback += r.N
		} else {
			b.stats.Vec += r.N
		}
	}
	b.massPos = true
	for _, m := range b.mass {
		b.massPos = b.massPos && m > 0
	}
}

// RangeStats summarizes how a block's tuples evaluate: vectorized vs
// fallback tuple counts, the runs, and a bitmask of the families involved.
// EXPLAIN renders it as the kernel strategy.
type RangeStats struct {
	Vec, Fallback int
	Runs          int
	FamMask       uint16
}

// Stats returns the block's RangeStats, computed when it was built.
func (b *Block) Stats() RangeStats { return b.stats }

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
