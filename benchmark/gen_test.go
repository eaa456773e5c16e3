package main

import (
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// listDigest hashes everything a plan would send: DDL, load, post and the
// first rounds of every client.
func listDigest(w *workload, seed int64) uint64 {
	sz := sizesFor(w, true)
	p := w.plan(sz, seed)
	h := fnv.New64a()
	put := func(s string) { h.Write([]byte(s)); h.Write([]byte{0}) } //nolint:errcheck
	for _, group := range [][]string{p.ddl, p.load, p.post} {
		for _, s := range group {
			put(s)
		}
	}
	for c := 0; c < sz.clients; c++ {
		for i := -1; i < 3; i++ {
			for _, st := range p.round(c, i) {
				put(st.sql)
			}
		}
	}
	return h.Sum64()
}

func TestSameSeedSameLists(t *testing.T) {
	for _, w := range workloads {
		a, b, c := listDigest(w, 7), listDigest(w, 7), listDigest(w, 8)
		if a != b {
			t.Errorf("%s: seed 7 gave two different statement lists", w.name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same statement lists", w.name)
		}
	}
}

// The oracle's closed forms against the engine's own pdf arithmetic, on
// 1000 random pdfs of the generated family mix.
func TestOracleMatchesDist(t *testing.T) {
	rng := rand.New(rand.NewSource(20080801))
	const tol = 1e-12
	for i := 0; i < 1000; i++ {
		d := genPDF(rng)
		lo := bound(10 + 80*rng.Float64())
		hi := bound(lo + 30*rng.Float64())
		if got, want := d.massIn(lo, hi), refMassIn(d, lo, hi); math.Abs(got-want) > tol {
			t.Fatalf("%s: mass in [%g, %g] = %g, dist says %g", d.sql(), lo, hi, got, want)
		}
		if got, want := d.cdf(hi), refCDF(d, hi); math.Abs(got-want) > tol {
			t.Fatalf("%s: cdf(%g) = %g, dist says %g", d.sql(), hi, got, want)
		}
		if got, want := d.mean(), refMean(d); math.Abs(got-want) > 1e-9 {
			t.Fatalf("%s: mean %g, dist says %g", d.sql(), got, want)
		}
		if got, want := d.mass(), refMassIn(d, math.Inf(-1), math.Inf(1)); math.Abs(got-want) > tol {
			t.Fatalf("%s: mass %g, dist says %g", d.sql(), got, want)
		}
	}
}

// A generated parameter must survive printing and parsing unchanged, or the
// oracle and the server would hold different numbers.
func TestDecimalsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		x := q4(1000 * rng.Float64())
		if y := mustParse(t, f4(x)); y != x {
			t.Fatalf("q4 value %v prints as %s and parses as %v", x, f4(x), y)
		}
		b := bound(100 * rng.Float64())
		if y := mustParse(t, f5(b)); y != b {
			t.Fatalf("bound %v prints as %s and parses as %v", b, f5(b), y)
		}
	}
}

func TestLtLowerBoundIsALowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		x, y := genPDF(rng), genPDF(rng)
		lb := ltLowerBound(x, y)
		// Monte-Carlo-free check on the discrete/discrete case, where
		// Pr(X < Y) is a finite sum.
		if x.kind < kindDisc || y.kind < kindDisc {
			if lb < 0 || lb > 1 {
				t.Fatalf("bound %g out of [0,1]", lb)
			}
			continue
		}
		var exact float64
		for a := range x.v {
			for b := range y.v {
				if x.v[a] < y.v[b] {
					exact += x.p[a] * y.p[b]
				}
			}
		}
		if lb > exact+1e-12 {
			t.Fatalf("%s < %s: bound %g above exact %g", x.sql(), y.sql(), lb, exact)
		}
	}
}

func TestCheckTopMass(t *testing.T) {
	mass := map[int64]float64{1: 1, 2: 1, 3: 0.9, 4: 0.5, 5: 0.1}
	e := &expect{kind: expectTopMass, k: 3, kth: 0.9,
		massOf: func(id int64) (float64, bool) { m, ok := mass[id]; return m, ok }}
	for _, tc := range []struct {
		ids []int64
		ok  bool
	}{
		{[]int64{1, 2, 3}, true},
		{[]int64{2, 1, 3}, true}, // ties in either order
		{[]int64{3, 1, 2}, false},
		{[]int64{1, 2, 4}, false}, // below the k-th largest
		{[]int64{1, 1, 3}, false},
		{[]int64{1, 2}, false},
		{[]int64{1, 2, 9}, false},
	} {
		if msg := checkTopMass(e, tc.ids); (msg == "") != tc.ok {
			t.Errorf("ids %v: verdict %q, want ok=%v", tc.ids, msg, tc.ok)
		}
	}
}

// Python: statistics.quantiles([3,1,4,1,5,9,2,6,5,3], n=4) == [1.75, 3.5, 5.25]
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || q2 != 3.5 || q3 != 5.25 {
		t.Fatalf("quartiles = %g %g %g", q1, q2, q3)
	}
}

func mustParse(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}
