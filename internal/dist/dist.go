// Package dist implements the probability-distribution layer of the model in
// "Database Support for Probabilistic Attributes and Tuples" (ICDE 2008).
//
// A Dist is a possibly-partial, possibly-joint probability distribution over
// k real dimensions. "Partial" (§II-B of the paper) means the total mass may
// be below 1: under the closed-world reading, 1−Mass() is the probability
// that the owning tuple does not exist at all. The package provides
//
//   - symbolic continuous distributions (Gaussian, Uniform, Exponential,
//     Triangular) stored in closed form,
//   - symbolic discrete distributions (Bernoulli, Binomial, Poisson,
//     Geometric),
//   - the generic fallbacks of §II-A: Discrete (value–probability pairs,
//     any dimensionality) and Grid (a kind-aware k-dimensional histogram),
//   - the Floored wrapper implementing the paper's symbolic floors
//     ("[Gaus(5,1), Floor{[5,∞]}]"), and
//   - the pdf primitives of §III-A: Marginal (marginalize), Floor /
//     FloorWhere (floor), and ProductOf (product of independent pdfs).
//
// History-aware products — the dependent case of §III-A — are the job of the
// model layer (internal/core), which decides *which* pdfs to multiply; this
// package only ever multiplies distributions the caller asserts independent.
package dist

import (
	"fmt"
	"math/rand"

	"probdb/internal/region"
)

// Kind classifies a distribution dimension as carrying a density
// (Continuous) or point masses (Discrete). A joint whose dimensions differ
// is Mixed.
type Kind int

// Distribution kinds.
const (
	KindContinuous Kind = iota
	KindDiscrete
	KindMixed
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindContinuous:
		return "continuous"
	case KindDiscrete:
		return "discrete"
	case KindMixed:
		return "mixed"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Dist is a possibly-partial joint pdf over Dim() dimensions. All
// distributions are immutable: mutating operations return new values.
//
// Mean, Variance and Sample are defined *conditionally on existence*, i.e.
// with respect to the distribution normalized to total mass 1; Mass reports
// the unnormalized total. At returns the joint density at x for continuous
// dimensions and the point mass for discrete ones (for mixed joints, the
// product of the two interpretations).
type Dist interface {
	// Dim returns the number of dimensions.
	Dim() int
	// DimKind returns the kind of dimension i.
	DimKind(i int) Kind
	// Mass returns the total probability mass, in [0, 1].
	Mass() float64
	// At evaluates the density / point mass at x (len(x) == Dim()).
	At(x []float64) float64
	// MassIn returns the mass inside the axis-aligned box b.
	MassIn(b region.Box) float64
	// MassWhere returns the mass of the region where pred holds. For
	// continuous dimensions the result may be a controlled approximation
	// (see Options).
	MassWhere(pred func(x []float64) bool) float64
	// Marginal integrates out all dimensions not listed in keep, returning
	// a distribution over the kept dimensions in the given order. The mass
	// of the result equals the mass of the receiver (marginalization of a
	// partial pdf preserves existence probability). keep must be non-empty
	// and contain valid, distinct dimensions.
	Marginal(keep []int) Dist
	// Floor zeroes the distribution outside keep along dimension dim — the
	// paper's floor operation for a rectangular region. Symbolic continuous
	// distributions stay symbolic (a Floored wrapper); generic ones apply
	// the floor eagerly and exactly.
	Floor(dim int, keep region.Set) Dist
	// FloorWhere zeroes the distribution where pred is false. For
	// non-rectangular predicates over continuous dimensions the result is a
	// Grid approximation (see Options).
	FloorWhere(pred func(x []float64) bool) Dist
	// Support returns a bounding box of the support. Unbounded symbolic
	// supports are truncated at negligible tail mass (Options.TailEps).
	Support() region.Box
	// Mean returns the conditional mean of dimension dim.
	Mean(dim int) float64
	// Variance returns the conditional variance of dimension dim.
	Variance(dim int) float64
	// Sample draws a point conditional on existence. It panics on
	// zero-mass distributions.
	Sample(r *rand.Rand) []float64

	fmt.Stringer
}

// KindOf returns the overall kind of d: the common dimension kind, or Mixed.
func KindOf(d Dist) Kind {
	k := d.DimKind(0)
	for i := 1; i < d.Dim(); i++ {
		if d.DimKind(i) != k {
			return KindMixed
		}
	}
	return k
}

// Options tunes the approximation knobs used when symbolic or factored
// representations must be collapsed to generic ones.
type Options struct {
	// GridBins is the number of histogram cells per continuous dimension
	// when collapsing to a Grid.
	GridBins int
	// TailEps is the tail mass cut off on each side when truncating an
	// unbounded support to a finite box.
	TailEps float64
	// CellSamples is the per-dimension subsample count used to estimate the
	// satisfied fraction of a grid cell under a non-rectangular predicate.
	CellSamples int
	// MaxDiscreteCells caps the size of exact discrete cross products; above
	// the cap ProductOf falls back to a Grid.
	MaxDiscreteCells int
}

// DefaultOptions are the package-wide defaults, chosen to keep collapse
// errors well below the approximation errors the paper itself tolerates for
// its generic representations.
var DefaultOptions = Options{
	GridBins:         32,
	TailEps:          1e-9,
	CellSamples:      4,
	MaxDiscreteCells: 1 << 20,
}

func (o Options) normalized() Options {
	d := DefaultOptions
	if o.GridBins <= 0 {
		o.GridBins = d.GridBins
	}
	if o.TailEps <= 0 {
		o.TailEps = d.TailEps
	}
	if o.CellSamples <= 0 {
		o.CellSamples = d.CellSamples
	}
	if o.MaxDiscreteCells <= 0 {
		o.MaxDiscreteCells = d.MaxDiscreteCells
	}
	return o
}

// checkDim panics unless 0 <= i < n.
func checkDim(i, n int) {
	if i < 0 || i >= n {
		panic(fmt.Sprintf("dist: dimension %d out of range [0,%d)", i, n))
	}
}

// checkKeep validates a Marginal keep list against dimensionality n.
func checkKeep(keep []int, n int) {
	if len(keep) == 0 {
		panic("dist: Marginal requires at least one kept dimension")
	}
	seen := make(map[int]bool, len(keep))
	for _, k := range keep {
		checkDim(k, n)
		if seen[k] {
			panic(fmt.Sprintf("dist: duplicate dimension %d in Marginal", k))
		}
		seen[k] = true
	}
}

// identityKeep reports whether keep is exactly [0, 1, ..., n-1].
func identityKeep(keep []int, n int) bool {
	if len(keep) != n {
		return false
	}
	for i, k := range keep {
		if k != i {
			return false
		}
	}
	return true
}

// CDF returns the mass of d at or below x along its single dimension. It
// panics unless d is one-dimensional.
func CDF(d Dist, x float64) float64 {
	if d.Dim() != 1 {
		panic("dist: CDF requires a one-dimensional distribution")
	}
	return massIv(d, region.Below(x, false))
}

// MassInterval returns the mass of the 1-D distribution d inside [lo, hi].
func MassInterval(d Dist, lo, hi float64) float64 {
	if d.Dim() != 1 {
		panic("dist: MassInterval requires a one-dimensional distribution")
	}
	return massIv(d, region.Closed(lo, hi))
}
