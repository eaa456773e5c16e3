package dist

import (
	"fmt"
	"math"
	"math/rand"

	"probdb/internal/numeric"
	"probdb/internal/region"
)

// MultiGaussian is the k-dimensional normal distribution N(mean, cov): the
// natural joint pdf for correlated sensor coordinates (the paper's §II-A
// moving-objects motivation, where x and y uncertainty is correlated).
// Marginals, density, moments and sampling are exact; rectangular masses
// and floors go through the Grid fallback like every other non-rectangular
// continuous operation.
type MultiGaussian struct {
	mean []float64
	cov  [][]float64
	chol [][]float64 // lower-triangular factor of cov
	// logNorm is log((2π)^{k/2}·det(L)), the density normalizer.
	logNorm float64
}

var _ Dist = (*MultiGaussian)(nil)

// NewMultiGaussian builds N(mean, cov). cov must be symmetric positive
// definite with len(cov) == len(mean), and every marginal must pass the
// GAUSSIAN rule (a *ParamError names the failing one).
func NewMultiGaussian(mean []float64, cov [][]float64) (*MultiGaussian, error) {
	k := len(mean)
	if k == 0 {
		return nil, fmt.Errorf("dist: NewMultiGaussian needs at least one dimension")
	}
	if len(cov) != k {
		return nil, fmt.Errorf("dist: covariance is %dx? for %d dims", len(cov), k)
	}
	for i := range cov {
		if len(cov[i]) != k {
			return nil, fmt.Errorf("dist: covariance row %d has %d entries, want %d", i, len(cov[i]), k)
		}
		if err := (Gaussian{Mu: mean[i], Sigma: math.Sqrt(cov[i][i])}).rule("MVN", cov[i][i]); err != nil {
			return nil, err
		}
		for j := range cov[i] {
			if !finite(cov[i][j]) {
				return nil, &ParamError{"MVN", "covariance", cov[i][j], "must be finite"}
			}
			if math.Abs(cov[i][j]-cov[j][i]) > 1e-9*(1+math.Abs(cov[i][j])) {
				return nil, fmt.Errorf("dist: covariance is not symmetric at (%d,%d)", i, j)
			}
		}
	}
	chol, err := numeric.Cholesky(cov)
	if err != nil {
		return nil, fmt.Errorf("dist: covariance: %w", err)
	}
	logNorm := float64(k) / 2 * math.Log(2*math.Pi)
	for i := 0; i < k; i++ {
		logNorm += math.Log(chol[i][i])
	}
	m := make([]float64, k)
	copy(m, mean)
	c := make([][]float64, k)
	for i := range c {
		c[i] = append([]float64(nil), cov[i]...)
	}
	return &MultiGaussian{mean: m, cov: c, chol: chol, logNorm: logNorm}, nil
}

// MustMultiGaussian is NewMultiGaussian that panics on error.
func MustMultiGaussian(mean []float64, cov [][]float64) *MultiGaussian {
	return must(NewMultiGaussian(mean, cov))
}

// Cov returns the covariance entry (i, j).
func (g *MultiGaussian) Cov(i, j int) float64 {
	checkDim(i, len(g.mean))
	checkDim(j, len(g.mean))
	return g.cov[i][j]
}

func (g *MultiGaussian) Dim() int { return len(g.mean) }

func (g *MultiGaussian) DimKind(i int) Kind {
	checkDim(i, len(g.mean))
	return KindContinuous
}

func (g *MultiGaussian) Mass() float64 { return 1 }

func (g *MultiGaussian) At(x []float64) float64 {
	if len(x) != len(g.mean) {
		panic("dist: At dimensionality mismatch")
	}
	diff := make([]float64, len(x))
	for i := range x {
		diff[i] = x[i] - g.mean[i]
	}
	z := numeric.ForwardSolve(g.chol, diff)
	var q numeric.KahanSum
	for _, v := range z {
		q.Add(v * v)
	}
	return math.Exp(-0.5*q.Value() - g.logNorm)
}

func (g *MultiGaussian) MassIn(b region.Box) float64 {
	if g.Dim() == 1 {
		return NewGaussian(g.mean[0], math.Sqrt(g.cov[0][0])).MassIn(b)
	}
	return g.collapse().MassIn(b)
}

func (g *MultiGaussian) MassWhere(pred func([]float64) bool) float64 {
	return g.collapse().MassWhere(pred)
}

// Marginal is exact: the marginal of a multivariate normal over any subset
// (in any order) is the normal with the corresponding sub-mean and
// sub-covariance.
func (g *MultiGaussian) Marginal(keep []int) Dist {
	checkKeep(keep, g.Dim())
	if identityKeep(keep, g.Dim()) {
		return g
	}
	if len(keep) == 1 {
		i := keep[0]
		return NewGaussian(g.mean[i], math.Sqrt(g.cov[i][i]))
	}
	mean := make([]float64, len(keep))
	cov := make([][]float64, len(keep))
	for a, i := range keep {
		mean[a] = g.mean[i]
		cov[a] = make([]float64, len(keep))
		for b, j := range keep {
			cov[a][b] = g.cov[i][j]
		}
	}
	return MustMultiGaussian(mean, cov)
}

func (g *MultiGaussian) Floor(dim int, keep region.Set) Dist {
	return g.collapse().Floor(dim, keep)
}

func (g *MultiGaussian) FloorWhere(pred func([]float64) bool) Dist {
	return g.collapse().FloorWhere(pred)
}

func (g *MultiGaussian) Support() region.Box {
	b := make(region.Box, g.Dim())
	z := -numeric.NormalQuantile(DefaultOptions.TailEps, 0, 1)
	for i := range b {
		s := z * math.Sqrt(g.cov[i][i])
		b[i] = region.Closed(g.mean[i]-s, g.mean[i]+s)
	}
	return b
}

func (g *MultiGaussian) Mean(dim int) float64 {
	checkDim(dim, g.Dim())
	return g.mean[dim]
}

func (g *MultiGaussian) Variance(dim int) float64 {
	checkDim(dim, g.Dim())
	return g.cov[dim][dim]
}

func (g *MultiGaussian) Sample(r *rand.Rand) []float64 {
	k := g.Dim()
	z := make([]float64, k)
	for i := range z {
		z[i] = r.NormFloat64()
	}
	out := make([]float64, k)
	for i := 0; i < k; i++ {
		v := g.mean[i]
		for j := 0; j <= i; j++ {
			v += g.chol[i][j] * z[j]
		}
		out[i] = v
	}
	return out
}

func (g *MultiGaussian) String() string {
	return fmt.Sprintf("MVN(dim=%d, µ=%v)", g.Dim(), g.mean)
}

// collapse builds the Grid fallback: per-dimension equal-width axes over
// the truncated support, cell masses from center densities normalized to
// total mass 1 (documented approximation, same class as FloorWhere's cell
// subsampling). The per-dimension bin count shrinks with dimensionality to
// bound the cell count.
func (g *MultiGaussian) collapse() *Grid {
	k := g.Dim()
	bins := DefaultOptions.GridBins
	for total := pow(bins, k); total > 1<<20 && bins > 2; total = pow(bins, k) {
		bins /= 2
	}
	sup := g.Support()
	axes := make([]Axis, k)
	for d := 0; d < k; d++ {
		edges := make([]float64, bins+1)
		for i := range edges {
			edges[i] = sup[d].Lo + float64(i)*(sup[d].Hi-sup[d].Lo)/float64(bins)
		}
		axes[d] = Axis{Kind: KindContinuous, Edges: edges}
	}
	total := pow(bins, k)
	w := make([]float64, total)
	x := make([]float64, k)
	idx := make([]int, k)
	var sum numeric.KahanSum
	for flat := 0; flat < total; flat++ {
		vol := 1.0
		for d := 0; d < k; d++ {
			a := axes[d]
			x[d] = a.center(idx[d])
			vol *= a.width(idx[d])
		}
		w[flat] = g.At(x) * vol
		sum.Add(w[flat])
		for d := k - 1; d >= 0; d-- {
			idx[d]++
			if idx[d] < bins {
				break
			}
			idx[d] = 0
		}
	}
	if s := sum.Value(); s > 0 {
		for i := range w {
			w[i] /= s
		}
	}
	return NewGrid(axes, w)
}

func pow(b, e int) int {
	out := 1
	for i := 0; i < e; i++ {
		if out > 1<<30/b {
			return 1 << 30
		}
		out *= b
	}
	return out
}
