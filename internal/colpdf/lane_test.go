package colpdf

import (
	"math"
	"math/rand"
	"testing"

	"probdb/internal/dist"
	"probdb/internal/region"
)

// TestLaneKeepMatchesScalar: KeepConst and KeepLane decide every numeric row
// exactly as holds does, on NaN, ±0, ±Inf and huge values, leave the rows
// outside the mask and the rows already dropped as they were, and record
// AllNum.
func TestLaneKeepMatchesScalar(t *testing.T) {
	corners := []float64{math.NaN(), math.Inf(-1), -1e300, -1, math.Copysign(0, -1), 0, 0.5, 1, 1 << 53, 1<<53 + 2, math.Inf(1)}
	rng := rand.New(rand.NewSource(2))
	const n = 300
	lane := func(maskEvery int) *Lane {
		vals, num := make([]float64, n), make([]bool, n)
		for i := range vals {
			vals[i] = corners[rng.Intn(len(corners))]
			num[i] = maskEvery == 0 || i%maskEvery != 0
		}
		return NewLane(vals, num)
	}
	if l := lane(0); !l.AllNum {
		t.Fatal("all-numeric lane not marked AllNum")
	}
	if l := lane(7); l.AllNum {
		t.Fatal("masked lane marked AllNum")
	}
	prior := make([]bool, n)
	for i := range prior {
		prior[i] = i%5 != 0
	}
	for _, op := range []region.Op{region.EQ, region.NE, region.LT, region.LE, region.GT, region.GE} {
		for _, c := range corners {
			l := lane(7)
			keep := append([]bool(nil), prior...)
			l.KeepConst(op, c, keep)
			for i := range keep {
				want := prior[i]
				if want && l.Num[i] {
					want = holds(op, l.Vals[i], c)
				}
				if keep[i] != want {
					t.Fatalf("KeepConst %v %v row %d (%v, numeric %v): %v, want %v", op, c, i, l.Vals[i], l.Num[i], keep[i], want)
				}
			}
		}
		l, r := lane(7), lane(11)
		keep := append([]bool(nil), prior...)
		l.KeepLane(op, r, keep)
		for i := range keep {
			want := prior[i]
			if want && l.Num[i] && r.Num[i] {
				want = holds(op, l.Vals[i], r.Vals[i])
			}
			if keep[i] != want {
				t.Fatalf("KeepLane %v row %d (%v, %v): %v, want %v", op, i, l.Vals[i], r.Vals[i], keep[i], want)
			}
		}
	}
	// holds is the certain filter's comparison: <= and >= negate > and <.
	nan := math.NaN()
	if !holds(region.LE, nan, 1) || !holds(region.GE, nan, 1) || !holds(region.NE, nan, nan) || holds(region.EQ, nan, nan) || holds(region.LT, nan, 1) {
		t.Fatal("holds disagrees with the certain filter on NaN")
	}
}

// TestBlockMassPositive: Encode records whether every mass in the lane is
// positive.
func TestBlockMassPositive(t *testing.T) {
	ds := []dist.Dist{dist.NewGaussian(0, 1), dist.NewUniform(0, 1)}
	if b := Encode(ds, 0, nil); !b.MassPositive() {
		t.Fatal("positive masses not recorded")
	}
	b := Encode(ds, 0, []float64{0.5, 0})
	if b.MassPositive() {
		t.Fatal("a zero mass recorded as positive")
	}
}
