// Package index implements a probabilistic threshold index (PTI) for
// uncertain attributes, after the x-bounds idea of Cheng et al. (VLDB 2004)
// — reference [6] of the paper, the indexing substrate its range queries
// assume. Entries are uncertainty intervals (truncated pdf supports)
// organized in a static augmented interval tree; each entry additionally
// stores a quantile table ("x-bounds") that prunes candidates which cannot
// reach the probability threshold before their pdfs are ever evaluated.
package index

import (
	"cmp"
	"math"
	"slices"

	"probdb/internal/dist"
	"probdb/internal/exec"
)

// quantGrid is the probability grid of the stored x-bounds. Conservative
// pruning rounds the query threshold down to a grid point. It is symmetric
// (quantGrid[len-1-i] = 1 - quantGrid[i]), which the upper-side prune uses.
var quantGrid = [...]float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95}

// xBounds computes quantGrid's x-bounds of a pdf.
var xBounds = dist.NewQuantileGrid(quantGrid[:]...)

// Item is one uncertain value to index.
type Item struct {
	RID  int64
	Dist dist.Dist // one-dimensional
}

// entry is an indexed pdf: its support interval, its x-bounds, and the pdf
// itself for exact verification.
type entry struct {
	rid    int64
	lo, hi float64
	// leftQ[i] is the x-bound dist.Quantile(d, quantGrid[i]): the smallest x
	// with CDF(x) >= quantGrid[i]·Mass, so every x below it has less.
	leftQ [len(quantGrid)]float64
	d     dist.Dist
}

// Index is a probabilistic threshold index over 1-D uncertain values. The
// bulk of the entries live in a static augmented interval tree; DML is
// incremental on top of it — Insert appends to a linearly-scanned overflow
// run, Delete tombstones in place — and once either side's fragmentation
// crosses a threshold the whole structure is rebuilt. It is safe for
// concurrent readers between mutations (mutations need external
// serialization, as with any index in a single-writer engine).
type Index struct {
	entries []entry // sorted by lo
	maxHi   []float64
	// overflow holds entries inserted since the last (re)build, scanned
	// linearly by every query until folded in by a rebuild.
	overflow []entry
	// dead tombstones RIDs removed since the last rebuild. Tombstoned
	// entries stay in place (static layout) and are skipped by queries.
	dead map[int64]bool
}

// Build constructs the index. Items' distributions must be 1-dimensional.
// The entries' x-bounds, most of a build's cost, are computed in morsels:
// each item fills its own slot, so the index is identical on any number of
// processors.
func Build(items []Item) *Index {
	for _, it := range items {
		checkDim(it)
	}
	es := make([]entry, len(items))
	err := exec.For(len(items), func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			es[i] = makeEntry(items[i])
		}
		return nil
	})
	if err != nil {
		panic(err) // a worker's *exec.PanicError, raised again where the caller can recover it
	}
	return buildFrom(es)
}

// buildFrom lays es out sorted by lo. It sorts a permutation and gathers
// once: an entry is 128 bytes, and sorting them in place copied two per
// comparison.
func buildFrom(es []entry) *Index {
	order := make([]int32, len(es))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(es[a].lo, es[b].lo) })
	sorted := make([]entry, len(es))
	for i, j := range order {
		sorted[i] = es[j]
	}
	ix := &Index{entries: sorted, maxHi: make([]float64, len(es))}
	ix.buildMax(0, len(es))
	return ix
}

func checkDim(it Item) {
	if it.Dist.Dim() != 1 {
		panic("index: requires one-dimensional distributions")
	}
}

// makeEntry truncates the item's support and precomputes its x-bounds.
func makeEntry(it Item) entry {
	sup := dist.SupportInterval(it.Dist)
	e := entry{rid: it.RID, lo: sup.Lo, hi: sup.Hi, d: it.Dist}
	xBounds.Quantiles(it.Dist, e.leftQ[:])
	return e
}

// Insert adds one item incrementally. The entry lands in the overflow run
// (with its x-bounds computed once, as at Build) and is immediately visible
// to queries; a fragmentation-triggered rebuild folds it into the tree.
func (ix *Index) Insert(it Item) {
	checkDim(it)
	e := makeEntry(it)
	if ix.dead[e.rid] {
		// Reusing a tombstoned RID revives it with the new pdf.
		delete(ix.dead, e.rid)
	}
	ix.overflow = append(ix.overflow, e)
	ix.maybeRebuild()
}

// Delete tombstones the entry with the given RID, reporting whether it was
// present. The slot is reclaimed at the next rebuild.
func (ix *Index) Delete(rid int64) bool {
	for i := range ix.overflow {
		if ix.overflow[i].rid == rid {
			ix.overflow = append(ix.overflow[:i], ix.overflow[i+1:]...)
			ix.maybeRebuild()
			return true
		}
	}
	found := false
	for i := range ix.entries {
		if ix.entries[i].rid == rid {
			found = true
			break
		}
	}
	if !found || ix.dead[rid] {
		return false
	}
	if ix.dead == nil {
		ix.dead = map[int64]bool{}
	}
	ix.dead[rid] = true
	ix.maybeRebuild()
	return true
}

// rebuildFloor is the minimum fragmentation (overflow entries or tombstones)
// before a rebuild is considered; below it the linear overflow scan and the
// tombstone checks are cheaper than recomputing every entry's x-bounds.
const rebuildFloor = 32

// maybeRebuild folds overflow and tombstones back into a fresh static tree
// once either exceeds both the floor and a quarter of the live entry count.
func (ix *Index) maybeRebuild() {
	frag := len(ix.overflow) + len(ix.dead)
	if frag < rebuildFloor || 4*frag < ix.Len() {
		return
	}
	live := make([]entry, 0, ix.Len())
	for _, e := range ix.entries {
		if !ix.dead[e.rid] {
			live = append(live, e)
		}
	}
	live = append(live, ix.overflow...)
	*ix = *buildFrom(live)
}

// buildMax fills the segment-maximum array: maxHi[mid] of a range holds the
// maximum hi within that range (recursive midpoint layout).
func (ix *Index) buildMax(lo, hi int) float64 {
	if lo >= hi {
		return math.Inf(-1)
	}
	mid := (lo + hi) / 2
	m := ix.entries[mid].hi
	if l := ix.buildMax(lo, mid); l > m {
		m = l
	}
	if r := ix.buildMax(mid+1, hi); r > m {
		m = r
	}
	ix.maxHi[mid] = m
	return m
}

// Len returns the number of live indexed items (tombstones excluded).
func (ix *Index) Len() int { return len(ix.entries) - len(ix.dead) + len(ix.overflow) }

// Stats reports what a query did: how many entries each phase touched.
type Stats struct {
	Visited  int // tree nodes whose intervals were inspected
	Pruned   int // overlapping candidates eliminated by x-bounds
	Verified int // candidates whose exact mass was computed
}

// RangeThreshold returns the RIDs whose probability mass inside [lo, hi] is
// at least p, in ascending RID order, along with query statistics. It is
// exact: x-bounds only ever prune true negatives, and survivors are
// verified against their pdfs.
func (ix *Index) RangeThreshold(lo, hi, p float64) ([]int64, Stats) {
	var out []int64
	var st Stats
	// Conservative grid threshold: the largest grid point strictly below p.
	// Strictness matters: the prune rules only establish mass <= q, so a
	// grid point equal to p would discard pdfs whose mass is exactly p —
	// which satisfy "mass >= p".
	gi := -1
	for i, q := range quantGrid {
		if q < p {
			gi = i
		}
	}
	visit := func(e *entry) {
		// x-bound pruning (both one-sided events bound the range mass).
		// The x-bounds are exact (dist.Quantile), so both rules hold for
		// every pdf, point masses included. Lower side: hi < leftQ[gi]
		// means CDF(hi) < q·M, and mass[lo,hi] <= CDF(hi) < q < p.
		if gi >= 0 {
			if hi < e.leftQ[gi] {
				st.Pruned++
				return
			}
			// Upper side: lo > leftQ[ui] leaves at least (1-q)·M of mass
			// strictly below lo, so mass[lo,hi] <= q·M < p.
			ui := len(quantGrid) - 1 - gi // quantGrid[ui] = 1 - quantGrid[gi]
			if lo > e.leftQ[ui] {
				st.Pruned++
				return
			}
		}
		st.Verified++
		if dist.MassInterval(e.d, lo, hi) >= p {
			out = append(out, e.rid)
		}
	}
	ix.walk(0, len(ix.entries), lo, hi, visit, &st)
	ix.scanOverflow(lo, hi, visit, &st)
	slices.Sort(out)
	return out, st
}

// scanOverflow linearly visits overflow entries overlapping [lo, hi].
func (ix *Index) scanOverflow(lo, hi float64, fn func(*entry), st *Stats) {
	for i := range ix.overflow {
		st.Visited++
		e := &ix.overflow[i]
		if e.lo <= hi && e.hi >= lo {
			fn(e)
		}
	}
}

// walk visits every entry whose [lo, hi] support overlaps the query range,
// pruning subtrees via the augmented maxima.
func (ix *Index) walk(a, b int, lo, hi float64, fn func(*entry), st *Stats) {
	if a >= b {
		return
	}
	mid := (a + b) / 2
	st.Visited++
	// If no support in this subtree reaches lo, nothing here overlaps.
	if ix.maxHi[mid] < lo {
		return
	}
	ix.walk(a, mid, lo, hi, fn, st)
	e := &ix.entries[mid]
	if e.lo <= hi && e.hi >= lo && !ix.dead[e.rid] {
		fn(e)
	}
	// Entries right of mid have e.lo >= entries[mid].lo; if even mid's lo
	// exceeds the query hi, so do all of theirs.
	if e.lo > hi {
		return
	}
	ix.walk(mid+1, b, lo, hi, fn, st)
}
