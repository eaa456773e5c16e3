package index

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"probdb/internal/dist"
	"probdb/internal/region"
	"probdb/internal/workload"
)

func buildItems(n int, seed int64) []Item {
	gen := workload.NewGen(seed)
	items := make([]Item, n)
	for i, rd := range gen.Readings(n) {
		items[i] = Item{RID: rd.RID, Dist: rd.Value}
	}
	return items
}

// bruteForce computes the exact answer by scanning.
func bruteForce(items []Item, lo, hi, p float64) []int64 {
	var out []int64
	for _, it := range items {
		if dist.MassInterval(it.Dist, lo, hi) >= p {
			out = append(out, it.RID)
		}
	}
	return out
}

func equalIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRangeThresholdMatchesBruteForce(t *testing.T) {
	items := buildItems(500, 21)
	ix := Build(items)
	if ix.Len() != 500 {
		t.Fatalf("len = %d", ix.Len())
	}
	gen := workload.NewGen(22)
	for _, p := range []float64{0.1, 0.3, 0.5, 0.8, 0.95} {
		for i := 0; i < 40; i++ {
			q := gen.RangeQuery()
			got, _ := ix.RangeThreshold(q.Lo, q.Hi, p)
			want := bruteForce(items, q.Lo, q.Hi, p)
			if !equalIDs(got, want) {
				t.Fatalf("p=%v query [%v,%v]: got %v want %v", p, q.Lo, q.Hi, got, want)
			}
		}
	}
}

func TestPruningActuallyPrunes(t *testing.T) {
	items := buildItems(2000, 23)
	ix := Build(items)
	_, st := ix.RangeThreshold(40, 45, 0.8)
	if st.Verified >= 2000 {
		t.Errorf("index verified every entry (%d); tree pruning broken", st.Verified)
	}
	if st.Pruned == 0 {
		t.Error("x-bounds never pruned at a high threshold")
	}
	// High thresholds verify fewer candidates than low ones.
	_, lowSt := ix.RangeThreshold(40, 45, 0.05)
	if st.Verified > lowSt.Verified {
		t.Errorf("p=0.8 verified %d > p=0.05 verified %d", st.Verified, lowSt.Verified)
	}
}

func TestCandidatesOverlapOnly(t *testing.T) {
	items := []Item{
		{RID: 1, Dist: dist.NewUniform(0, 10)},
		{RID: 2, Dist: dist.NewUniform(20, 30)},
		{RID: 3, Dist: dist.NewUniform(5, 25)},
	}
	ix := Build(items)
	got := ix.Candidates(8, 12)
	if !equalIDs(got, []int64{1, 3}) {
		t.Errorf("candidates = %v", got)
	}
	if got := ix.Candidates(100, 200); len(got) != 0 {
		t.Errorf("disjoint query matched %v", got)
	}
}

func TestMixedDistributionKinds(t *testing.T) {
	items := []Item{
		{RID: 1, Dist: dist.NewGaussian(10, 1)},
		{RID: 2, Dist: dist.NewDiscrete([]float64{5, 15}, []float64{0.5, 0.5})},
		{RID: 3, Dist: dist.ToHistogram(dist.NewGaussian(20, 2), 5)},
		{RID: 4, Dist: dist.NewGaussian(0, 1).Floor(0, region.Compare(region.LT, 0))},
	}
	ix := Build(items)
	got, _ := ix.RangeThreshold(9, 11, 0.5)
	if !equalIDs(got, []int64{1}) {
		t.Errorf("got %v", got)
	}
	got, _ = ix.RangeThreshold(14, 16, 0.4)
	if !equalIDs(got, []int64{2}) {
		t.Errorf("got %v", got)
	}
}

func TestBuildPanicsOnJoint(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("joint distribution should panic")
		}
	}()
	Build([]Item{{RID: 1, Dist: dist.ProductOf(dist.NewGaussian(0, 1), dist.NewGaussian(0, 1))}})
}

func TestEmptyIndex(t *testing.T) {
	ix := Build(nil)
	if got, _ := ix.RangeThreshold(0, 1, 0.5); len(got) != 0 {
		t.Errorf("empty index returned %v", got)
	}
}

func TestRandomizedAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(60)
		items := buildItems(n, int64(trial))
		ix := Build(items)
		lo := r.Float64() * 100
		hi := lo + r.Float64()*20
		p := r.Float64()
		got, _ := ix.RangeThreshold(lo, hi, p)
		want := bruteForce(items, lo, hi, p)
		if !equalIDs(got, want) {
			t.Fatalf("trial %d: [%v,%v] p=%v: got %v want %v", trial, lo, hi, p, got, want)
		}
	}

	// The edges the x-bounds must be exact at: query bounds on a discrete
	// support point and one ulp either side of it, thresholds exactly on a
	// grid point and one ulp above it, over the benchmark's family mix.
	items := buildMixedItems(400)
	ix := Build(items)
	var ps []float64
	for _, q := range quantGrid {
		ps = append(ps, q, math.Nextafter(q, 1))
	}
	for trial := 0; trial < 300; trial++ {
		pts, ok := items[r.Intn(len(items))].Dist.(*dist.Discrete)
		for !ok {
			pts, ok = items[r.Intn(len(items))].Dist.(*dist.Discrete)
		}
		x := pts.Points()[r.Intn(len(pts.Points()))].X[0]
		at := []float64{math.Nextafter(x, math.Inf(-1)), x, math.Nextafter(x, math.Inf(1))}
		b := at[r.Intn(3)]
		lo, hi := b, b+r.Float64()*10
		if r.Intn(2) == 0 {
			lo, hi = b-r.Float64()*10, b
		}
		p := ps[r.Intn(len(ps))]
		got, _ := ix.RangeThreshold(lo, hi, p)
		if want := bruteForce(items, lo, hi, p); !equalIDs(got, want) {
			t.Fatalf("edge trial %d: [%v,%v] p=%v: got %v want %v", trial, lo, hi, p, got, want)
		}
	}
}

// TestInterleavedDML drives a randomized insert/delete/query sequence against
// the incremental index and checks every query against a brute-force scan of
// the live set — through enough churn to cross the rebuild threshold many
// times.
func TestInterleavedDML(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	gen := workload.NewGen(48)
	pool := gen.Readings(600)

	ix := Build(nil)
	live := map[int64]Item{}
	next := 0

	insert := func() {
		if next >= len(pool) {
			return
		}
		rd := pool[next]
		next++
		it := Item{RID: rd.RID, Dist: rd.Value}
		live[it.RID] = it
		ix.Insert(it)
	}
	remove := func() {
		for rid := range live {
			delete(live, rid)
			if !ix.Delete(rid) {
				t.Fatalf("Delete(%d) reported absent for a live RID", rid)
			}
			return
		}
	}
	check := func() {
		lo := r.Float64() * 100
		hi := lo + r.Float64()*20
		p := r.Float64()
		items := make([]Item, 0, len(live))
		for _, it := range live {
			items = append(items, it)
		}
		want := bruteForce(items, lo, hi, p)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		got, _ := ix.RangeThreshold(lo, hi, p)
		if !equalIDs(got, want) {
			t.Fatalf("[%v,%v] p=%v: got %v want %v", lo, hi, p, got, want)
		}
		cands := ix.Candidates(lo, hi)
		seen := map[int64]bool{}
		for _, rid := range cands {
			if _, ok := live[rid]; !ok {
				t.Fatalf("Candidates returned deleted/unknown RID %d", rid)
			}
			if seen[rid] {
				t.Fatalf("Candidates returned duplicate RID %d", rid)
			}
			seen[rid] = true
		}
		for _, rid := range want {
			if !seen[rid] {
				t.Fatalf("qualifying RID %d missing from Candidates", rid)
			}
		}
	}

	rebuilt := false
	for step := 0; step < 2000; step++ {
		switch {
		case r.Float64() < 0.5:
			insert()
		case r.Float64() < 0.6:
			remove()
		default:
			check()
		}
		if ov, dead := ix.Fragmentation(); ov == 0 && dead == 0 && len(live) > rebuildFloor {
			rebuilt = true
		}
		if n := ix.Len(); n != len(live) {
			t.Fatalf("step %d: Len = %d, live = %d", step, n, len(live))
		}
	}
	if !rebuilt {
		t.Error("fragmentation never triggered a rebuild during 2000 DML steps")
	}
	check()

	// Deleting a missing RID reports false and changes nothing.
	if ix.Delete(1 << 40) {
		t.Error("Delete of unknown RID reported true")
	}
}

// TestPTIDiscreteEdge: a query bound that falls just below a discrete support
// point must not prune the pdf. The x-bounds used to be bisected to ~1e-12
// relative width and came to rest up to ~1e-11·|x| below the point, so the
// upper-side prune (lo > leftQ[ui]) dropped rows whose bound fell in that gap:
// the repro below returned no row with the index and one without.
func TestPTIDiscreteEdge(t *testing.T) {
	for _, x := range []float64{20, 1, 37.5, 0.3, 1000} {
		items := []Item{{RID: 1, Dist: dist.NewDiscrete([]float64{x / 2, x}, []float64{0.5, 0.5})}}
		ix := Build(items)
		below := []float64{math.Nextafter(x, math.Inf(-1)), x - 1e-12*x, x - 3e-12*x, x - 1e-11*x, x}
		if x == 20 {
			below = append(below, 19.99999999999929) // the issue's repro bound
		}
		for _, p := range []float64{0.5, math.Nextafter(0.5, 1), 0.4, 0.25} {
			for _, lo := range below {
				got, _ := ix.RangeThreshold(lo, 2*x, p)
				if want := bruteForce(items, lo, 2*x, p); !equalIDs(got, want) {
					t.Errorf("x=%v [%v, %v] p=%v: index %v, scan %v", x, lo, 2*x, p, got, want)
				}
				// The mirror: an upper bound at the point keeps both points.
				got, _ = ix.RangeThreshold(0, lo, p)
				if want := bruteForce(items, 0, lo, p); !equalIDs(got, want) {
					t.Errorf("x=%v [0, %v] p=%v: index %v, scan %v", x, lo, p, got, want)
				}
			}
		}
	}
}

// TestPTIBuildAllocsDoNotScale: Build allocates a constant number of blocks
// (the entry array, the max array, the index) however many items it holds —
// x-bounds are inline in the entry and computed without allocating.
func TestPTIBuildAllocsDoNotScale(t *testing.T) {
	small, large := buildMixedItems(1000), buildMixedItems(10000)
	a := testing.AllocsPerRun(3, func() { Build(small) })
	b := testing.AllocsPerRun(3, func() { Build(large) })
	if b-a > 4 {
		t.Errorf("Build allocations: %v at 1 000 items, %v at 10 000", a, b)
	}
}

// TestPTIBuildParallelIdentical: Build computes entries on every CPU, each
// into its own slot, so the index is the one a sequential build lays out —
// entries, x-bounds and segment maxima alike. CI runs it at -cpu=1,4.
func TestPTIBuildParallelIdentical(t *testing.T) {
	items := buildMixedItems(5000)
	es := make([]entry, len(items))
	for i, it := range items {
		es[i] = makeEntry(it)
	}
	want, got := buildFrom(es), Build(items)
	if !reflect.DeepEqual(got.entries, want.entries) || !reflect.DeepEqual(got.maxHi, want.maxHi) {
		t.Fatal("parallel Build differs from the sequential layout")
	}
}

// buildMixedItems draws n items in the benchmark's family mix: Gaussian,
// Uniform, full and partial three-point DISCRETE.
func buildMixedItems(n int) []Item {
	r := rand.New(rand.NewSource(int64(n)))
	items := make([]Item, n)
	for i := range items {
		m := 20 + 60*r.Float64()
		var d dist.Dist
		switch u := r.Float64(); {
		case u < 0.6:
			d = dist.NewGaussianVar(m, 4+32*r.Float64())
		case u < 0.8:
			w := 1 + 9*r.Float64()
			d = dist.NewUniform(m-w, m+w)
		case u < 0.9:
			d = dist.NewDiscrete([]float64{m - 1, m, m + 1.5}, []float64{0.25, 0.5, 0.25})
		default:
			d = dist.NewDiscrete([]float64{m - 1, m, m + 1.5}, []float64{0.25, 0.25, 0.125})
		}
		items[i] = Item{RID: int64(i), Dist: d}
	}
	return items
}

func BenchmarkPTIBuild(b *testing.B) {
	items := buildMixedItems(25000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(items)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(items)), "ns/entry")
}
