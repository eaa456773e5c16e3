package colpdf

import (
	"math"
	"math/rand"
	"testing"

	"probdb/internal/dist"
	"probdb/internal/region"
)

// linearRunRange is RunRange as a walk from run 0: the reference the binary
// search must reproduce.
func linearRunRange(b *Block, from, to int) (r0, r1 int) {
	for r0 < len(b.runs) && b.runs[r0].Start+b.runs[r0].N <= from {
		r0++
	}
	r1 = r0
	for r1 < len(b.runs) && b.runs[r1].Start < to {
		r1++
	}
	return r0, r1
}

// TestRunRangeMatchesLinearWalk compares RunRange with the linear walk on
// random run layouts — single runs, many one-row runs, long and short runs
// mixed — over every range a morsel or a batch can ask for, empty and
// out-of-block ones included.
func TestRunRangeMatchesLinearWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for layout := 0; layout < 300; layout++ {
		b := &Block{}
		maxRun := 1 + rng.Intn(1+layout%40)
		for nr := rng.Intn(120); len(b.runs) < nr || b.n == 0; {
			n := 1 + rng.Intn(maxRun)
			b.runs = append(b.runs, Run{Start: b.n, N: n})
			b.n += n
		}
		for q := 0; q < 200; q++ {
			from := rng.Intn(b.n+3) - 1
			to := from + rng.Intn(40)
			if q%10 == 0 {
				from, to = 0, b.n
			}
			g0, g1 := b.RunRange(from, to)
			w0, w1 := linearRunRange(b, from, to)
			if g0 != w0 || g1 != w1 {
				t.Fatalf("layout %d (%d runs over %d rows): RunRange(%d, %d) = [%d, %d), linear walk [%d, %d)",
					layout, len(b.runs), b.n, from, to, g0, g1, w0, w1)
			}
		}
	}
}

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
