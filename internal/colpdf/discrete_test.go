package colpdf

import (
	"math"
	"math/rand"
	"testing"

	"probdb/internal/dist"
	"probdb/internal/region"
)

// discreteValues is the support pool of the random discrete samplings:
// negative values, both zeros (NewDiscrete merges them into one point),
// fractions and values far out.
var discreteValues = []float64{math.Copysign(0, -1), 0, -2.5, -1, 0.5, 1, 2, 3.75, -1e300, 1e300}

// randomDiscrete draws a one-dimensional discrete sampling of 1 to 8
// points from discreteValues, full (its probabilities sum to 1) or partial.
// Probabilities span sixteen orders of magnitude, so that the order the
// points are summed in shows in the low bits.
func randomDiscrete(rng *rand.Rand) *dist.Discrete {
	k := 1 + rng.Intn(8)
	xs := make([]float64, k)
	ps := make([]float64, k)
	sum := 0.0
	for i := range xs {
		xs[i] = discreteValues[rng.Intn(len(discreteValues))]
		ps[i] = (0.05 + rng.Float64()) * math.Pow(10, -float64(rng.Intn(17)))
		sum += ps[i]
	}
	scale := 1 / sum
	if rng.Intn(2) == 0 {
		scale *= 0.1 + 0.8*rng.Float64() // partial
	}
	for i := range ps {
		ps[i] *= scale
	}
	return dist.NewDiscrete(xs, ps)
}

// discreteLaneBlock mixes runs of one to four discrete samplings with
// Gaussians and dictionary-shared Poissons and Geometrics, so morsel splits
// fall inside discrete runs and the point lane's offsets skip other rows.
func discreteLaneBlock(rng *rand.Rand, n int) []dist.Dist {
	ds := make([]dist.Dist, 0, n)
	for len(ds) < n {
		for k := 1 + rng.Intn(4); k > 0 && len(ds) < n; k-- {
			ds = append(ds, randomDiscrete(rng))
		}
		switch rng.Intn(4) {
		case 0:
			ds = append(ds, dist.NewGaussian(rng.Float64()*4-1, 0.5+rng.Float64()))
		case 1:
			ds = append(ds, dist.NewPoisson(float64(1+rng.Intn(3))))
		case 2:
			ds = append(ds, dist.NewGeometric(0.3))
		}
	}
	return ds[:n]
}

// laneIntervals crosses the support pool and ±Inf with every open/closed
// combination — point, empty and reversed intervals included — and adds
// NaN endpoints.
func laneIntervals() []region.Interval {
	inf, nan := math.Inf(1), math.NaN()
	ends := append([]float64{-inf, inf}, discreteValues...)
	var ivs []region.Interval
	for _, lo := range ends {
		for _, hi := range ends {
			for _, open := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
				ivs = append(ivs, region.Interval{Lo: lo, Hi: hi, LoOpen: open[0], HiOpen: open[1]})
			}
		}
	}
	return append(ivs,
		region.Interval{Lo: nan, Hi: 1},
		region.Interval{Lo: -1, Hi: nan},
		region.Interval{Lo: nan, Hi: nan})
}

// TestDiscreteLaneDifferential: random one-dimensional discrete samplings —
// full, partial, single-point, over negative and ±0 values — land in the
// point lane, never in a fallback run, and the kernels reproduce the scalar
// path bit for bit: EvalInterval equals Discrete.MassIn over closed, open,
// point, empty, NaN and ±Inf intervals, also when a range split cuts a run,
// and over the interval of one comparison it equals dist.FloorMass, the
// pending mass of a floor, for <, <=, > and >= — for the discrete,
// dictionary and Gaussian rows alike, as the pending lanes use all three.
func TestDiscreteLaneDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ds := discreteLaneBlock(rng, 300)
	b := Encode(ds, 0, nil)
	for r := 0; r < b.NumRuns(); r++ {
		run := b.RunAt(r)
		for i := run.Start; i < run.Start+run.N; i++ {
			_, disc := ds[i].(*dist.Discrete)
			if disc != (run.Fam == FamDiscrete) {
				t.Fatalf("row %d (%s) in a %v run", i, ds[i], run.Fam)
			}
		}
	}
	n := len(ds)
	whole := make([]float64, n)
	split := make([]float64, n)
	for _, iv := range laneIntervals() {
		b.EvalInterval(iv, whole)
		for i, d := range ds {
			if want := d.MassIn(region.Box{iv}); math.Float64bits(whole[i]) != math.Float64bits(want) {
				t.Fatalf("iv %+v row %d (%s): lane %v, MassIn %v", iv, i, d, whole[i], want)
			}
		}
		for _, step := range []int{1, 3, 7, 64} {
			for from := 0; from < n; from += step {
				to := min(from+step, n)
				b.MassInBoxVec(from, to, region.Box{iv}, split[from:to])
			}
			for i := range split {
				if math.Float64bits(split[i]) != math.Float64bits(whole[i]) {
					t.Fatalf("iv %+v step %d row %d: %v, whole-range %v", iv, step, i, split[i], whole[i])
				}
			}
		}
	}
	for _, op := range []region.Op{region.LT, region.LE, region.GT, region.GE} {
		for _, c := range append([]float64{-3, 0.25, 2.5}, discreteValues...) {
			keep := region.Compare(op, c)
			if len(keep.Intervals()) != 1 {
				continue
			}
			b.EvalInterval(keep.Intervals()[0], whole)
			for i, d := range ds {
				if want := dist.FloorMass(d, 0, keep); math.Float64bits(whole[i]) != math.Float64bits(want) {
					t.Fatalf("%v %v row %d (%s): lane %v, FloorMass %v", op, c, i, d, whole[i], want)
				}
			}
		}
	}
}
