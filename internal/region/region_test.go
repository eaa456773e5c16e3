package region

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestIntervalEmpty(t *testing.T) {
	cases := []struct {
		iv   Interval
		want bool
	}{
		{Closed(1, 2), false},
		{Closed(2, 1), true},
		{Point(3), false},
		{Open(3, 3), true},
		{Interval{Lo: 3, Hi: 3, LoOpen: true}, true},
		{Interval{Lo: math.Inf(1), Hi: math.Inf(1)}, true},
		{Interval{Lo: math.NaN(), Hi: 1}, true},
	}
	for _, c := range cases {
		if got := c.iv.Empty(); got != c.want {
			t.Errorf("%v.Empty() = %v, want %v", c.iv, got, c.want)
		}
	}
}

func TestIntervalContains(t *testing.T) {
	iv := Interval{Lo: 1, Hi: 5, LoOpen: true}
	if iv.Contains(1) {
		t.Error("open lower endpoint should be excluded")
	}
	if !iv.Contains(5) {
		t.Error("closed upper endpoint should be included")
	}
	if !iv.Contains(3) || iv.Contains(0) || iv.Contains(6) {
		t.Error("interior/exterior membership wrong")
	}
}

func TestSetNormalization(t *testing.T) {
	s := NewSet(Closed(1, 3), Closed(2, 5), Closed(7, 8))
	if got := len(s.Intervals()); got != 2 {
		t.Fatalf("expected 2 intervals after merge, got %d: %v", got, s)
	}
	if !s.Contains(4) || s.Contains(6) || !s.Contains(7.5) {
		t.Error("membership after merge wrong")
	}
}

func TestSetAdjacencyMerging(t *testing.T) {
	// [1,2] and (2,3] touch at a closed point: must merge.
	s := NewSet(Closed(1, 2), Interval{Lo: 2, LoOpen: true, Hi: 3})
	if len(s.Intervals()) != 1 {
		t.Errorf("touching intervals should merge: %v", s)
	}
	// [1,2) and (2,3] leave the point 2 uncovered: must NOT merge.
	s = NewSet(Interval{Lo: 1, Hi: 2, HiOpen: true}, Interval{Lo: 2, LoOpen: true, Hi: 3})
	if len(s.Intervals()) != 2 {
		t.Errorf("gapped intervals should stay separate: %v", s)
	}
	if s.Contains(2) {
		t.Error("point 2 should be excluded")
	}
}

func TestSetComplementRoundTrip(t *testing.T) {
	s := NewSet(Closed(0, 1), Open(2, 3), Point(5))
	c := s.Complement()
	for _, x := range []float64{0, 0.5, 1, 2.5, 5} {
		if c.Contains(x) {
			t.Errorf("complement should exclude %v", x)
		}
	}
	for _, x := range []float64{-1, 1.5, 2, 3, 4, 6} {
		if !c.Contains(x) {
			t.Errorf("complement should include %v", x)
		}
	}
	if !s.Complement().Complement().Equal(s) {
		t.Error("double complement should be identity")
	}
	if !Empty.Complement().Equal(Full) || !Full.Complement().Equal(Empty) {
		t.Error("complement of empty/full wrong")
	}
}

func TestSetIntersect(t *testing.T) {
	a := NewSet(Closed(0, 10))
	b := NewSet(Closed(5, 15), Closed(20, 30))
	got := a.Intersect(b)
	want := NewSet(Closed(5, 10))
	if !got.Equal(want) {
		t.Errorf("intersect = %v, want %v", got, want)
	}
	if !a.Intersect(Empty).IsEmpty() {
		t.Error("intersect with empty should be empty")
	}
	if !a.Intersect(Full).Equal(a) {
		t.Error("intersect with full should be identity")
	}
}

func TestSetMinus(t *testing.T) {
	a := NewSet(Closed(0, 10))
	got := a.Minus(NewSet(Open(2, 4)))
	if !got.Contains(2) || !got.Contains(4) || got.Contains(3) {
		t.Errorf("minus open interval wrong: %v", got)
	}
}

func TestSetUnionCommutesAndIdempotent(t *testing.T) {
	f := func(raw []float64) bool {
		ivs := randomIntervals(raw)
		a := NewSet(ivs...)
		b := NewSet(reverse(ivs)...)
		return a.Equal(b) && a.Union(a).Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSetOpsAgreeWithPointwise(t *testing.T) {
	// Property: for random sets and probe points, the set operations agree
	// with boolean logic on membership.
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		a := randomSet(r)
		b := randomSet(r)
		union, inter, minus := a.Union(b), a.Intersect(b), a.Minus(b)
		for probe := 0; probe < 50; probe++ {
			x := math.Floor(r.Float64()*40-20) / 2 // includes many endpoint hits
			ina, inb := a.Contains(x), b.Contains(x)
			if union.Contains(x) != (ina || inb) {
				t.Fatalf("union mismatch at %v: a=%v b=%v", x, a, b)
			}
			if inter.Contains(x) != (ina && inb) {
				t.Fatalf("intersect mismatch at %v: a=%v b=%v", x, a, b)
			}
			if minus.Contains(x) != (ina && !inb) {
				t.Fatalf("minus mismatch at %v: a=%v b=%v", x, a, b)
			}
			if a.Complement().Contains(x) == ina {
				t.Fatalf("complement mismatch at %v: a=%v", x, a)
			}
		}
	}
}

func randomSet(r *rand.Rand) Set {
	n := r.Intn(4)
	ivs := make([]Interval, n)
	for i := range ivs {
		lo := math.Floor(r.Float64()*40-20) / 2
		hi := lo + math.Floor(r.Float64()*10)/2
		ivs[i] = Interval{Lo: lo, Hi: hi, LoOpen: r.Intn(2) == 0, HiOpen: r.Intn(2) == 0}
	}
	return NewSet(ivs...)
}

func randomIntervals(raw []float64) []Interval {
	var ivs []Interval
	for i := 0; i+1 < len(raw); i += 2 {
		lo, hi := raw[i], raw[i+1]
		if math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
			continue
		}
		lo, hi = math.Mod(lo, 100), math.Mod(hi, 100)
		if lo > hi {
			lo, hi = hi, lo
		}
		ivs = append(ivs, Closed(lo, hi))
	}
	return ivs
}

func reverse(ivs []Interval) []Interval {
	out := make([]Interval, len(ivs))
	for i, iv := range ivs {
		out[len(ivs)-1-i] = iv
	}
	return out
}

func TestCompare(t *testing.T) {
	cases := []struct {
		op      Op
		c       float64
		in, out []float64
	}{
		{LT, 5, []float64{4, -100}, []float64{5, 6}},
		{LE, 5, []float64{4, 5}, []float64{5.0001}},
		{GT, 5, []float64{5.0001, 100}, []float64{5, 4}},
		{GE, 5, []float64{5, 100}, []float64{4.999}},
		{EQ, 5, []float64{5}, []float64{4.999, 5.001}},
		{NE, 5, []float64{4.999, 5.001}, []float64{5}},
	}
	for _, c := range cases {
		s := Compare(c.op, c.c)
		for _, x := range c.in {
			if !s.Contains(x) {
				t.Errorf("Compare(%v,%v) should contain %v", c.op, c.c, x)
			}
		}
		for _, x := range c.out {
			if s.Contains(x) {
				t.Errorf("Compare(%v,%v) should not contain %v", c.op, c.c, x)
			}
		}
	}
}

func TestOpFlipEval(t *testing.T) {
	ops := []Op{LT, LE, GT, GE, EQ, NE}
	pairs := [][2]float64{{1, 2}, {2, 1}, {3, 3}}
	for _, op := range ops {
		for _, p := range pairs {
			if op.Eval(p[0], p[1]) != op.Flip().Eval(p[1], p[0]) {
				t.Errorf("%v flip mismatch on %v", op, p)
			}
		}
	}
}

func TestBox(t *testing.T) {
	b := Box{Closed(0, 10), Closed(0, 5)}
	if !b.Contains([]float64{5, 2}) || b.Contains([]float64{5, 6}) {
		t.Error("box membership wrong")
	}
	if b.Empty() {
		t.Error("non-degenerate box reported empty")
	}
	inter := b.Intersect(Box{Closed(8, 20), Closed(-5, 1)})
	if !inter.Contains([]float64{9, 0.5}) || inter.Contains([]float64{7, 0.5}) {
		t.Error("box intersection wrong")
	}
	if !(Box{Closed(3, 1), Closed(0, 1)}).Empty() {
		t.Error("degenerate box should be empty")
	}
}

func TestSetString(t *testing.T) {
	if Empty.String() != "∅" {
		t.Errorf("empty set renders as %q", Empty.String())
	}
	s := NewSet(Closed(1, 2), Open(3, 4)).String()
	if s != "[1, 2] ∪ (3, 4)" {
		t.Errorf("unexpected rendering %q", s)
	}
}

// TestSetOfMatchesNewSet: SetOf accepts exactly the interval lists NewSet
// leaves as they are — every normalized set's intervals among them — and
// then gives NewSet's set.
func TestSetOfMatchesNewSet(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ends := []float64{math.Inf(-1), -1, 0, 0.5, 1, 2, 3, math.Inf(1)}
	for i := 0; i < 5000; i++ {
		ivs := make([]Interval, rng.Intn(4))
		for j := range ivs {
			ivs[j] = Interval{Lo: ends[rng.Intn(len(ends))], Hi: ends[rng.Intn(len(ends))], LoOpen: rng.Intn(2) == 0, HiOpen: rng.Intn(2) == 0}
		}
		want := NewSet(ivs...)
		if got, ok := SetOf(append([]Interval(nil), ivs...)); ok && !reflect.DeepEqual(got, want) {
			t.Fatalf("SetOf(%v) = %v, NewSet gives %v", ivs, got, want)
		} else if !ok && reflect.DeepEqual(want.Intervals(), ivs) {
			t.Fatalf("SetOf(%v) refused a normalized list", ivs)
		}
		if got, ok := SetOf(append([]Interval(nil), want.Intervals()...)); !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("SetOf(%v) = %v, %v on NewSet's own intervals", want.Intervals(), got, ok)
		}
	}
}
