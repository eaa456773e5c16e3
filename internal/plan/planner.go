package plan

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"probdb/internal/core"
	"probdb/internal/region"
)

// ConjKind discriminates the planner's view of a WHERE conjunct.
type ConjKind int

// Conjunct kinds, mirroring the query layer's condition kinds.
const (
	ConjCmp ConjKind = iota
	ConjProb
	ConjProbRange
)

// Conjunct is one WHERE conjunct as the planner sees it: enough structure
// to match access paths and estimate selectivity, nothing more. The query
// layer owns the executable form; Orig ties the two together.
type Conjunct struct {
	Kind ConjKind
	Orig int // position in the original WHERE list

	// ConjCmp, normalized with the column on the left when simple. Col is
	// "" for column-vs-column or otherwise unindexable comparisons.
	Col          string
	ColUncertain bool
	Op           region.Op
	Val          core.Value

	// ConjProb / ConjProbRange.
	ProbCols  []string
	Lo, Hi    float64
	Threshold float64
}

// AccessKind is the chosen physical access path.
type AccessKind int

// Access paths, cheapest-first when applicable.
const (
	AccessScan AccessKind = iota
	AccessPTI
	AccessBTree
)

func (k AccessKind) String() string {
	switch k {
	case AccessPTI:
		return "pti"
	case AccessBTree:
		return "btree"
	default:
		return "scan"
	}
}

// Plan is the planner's decision for one single-table SELECT: which access
// path opens the table (and which conjuncts it serves), whether the probed
// conjunct is fully consumed by the probe or must be re-verified, and the
// evaluation order of the residual probability conjuncts. Comparison
// conjuncts always run in written order — their pdf floors are order-
// sensitive at the bit level — while probability-threshold conjuncts are
// pure filters that commute exactly, so only those are reordered.
type Plan struct {
	Access   AccessKind
	Col      string // indexed column ("" for scan)
	Probe    int    // Orig of the (first) conjunct the probe serves (-1 for scan)
	Consumed bool   // probe answers the conjunct exactly; drop it from residual

	// Btree probes: every probe-able comparison on Col is folded into one
	// inclusive key range, empty when KeyLo > KeyHi (only spilled rows can
	// match). Folded counts the conjuncts; all of them stay in the residual.
	Folded       int
	KeyLo, KeyHi int64

	ResidualProb []int // Orig order for prob conjuncts (excluding a consumed one)

	EstRows float64 // estimated result cardinality
	EstCand float64 // estimated candidates surviving the access path
	Reason  string  // why the planner fell back to a scan ("" when indexed)

	// Fallback marks a scan plan whose WHERE clause compares an indexed
	// column to a literal or thresholds an indexed pdf column: an index was
	// there and could not be probed.
	Fallback bool
}

// keyRange is the fold of the comparison conjuncts on one btree column: the
// inclusive integer key range the tree is scanned over.
type keyRange struct {
	col     string
	orig, n int // first conjunct folded, and how many
	lo, hi  int64
}

// Counters aggregates planner activity over one or more queries; the
// server surfaces them per query through wire.Stats.
type Counters struct {
	IndexProbes      uint64 // index probes executed
	IndexPruned      uint64 // pdf evaluations avoided by an index
	PlannerFallbacks uint64 // queries that scanned past an index (Plan.Fallback, degraded probes, multi-table FROM)
	VecTuples        uint64 // filter-kernel tuples evaluated on the vectorized lanes
	ScalarTuples     uint64 // filter-kernel tuples evaluated on the scalar path
}

// Add accumulates other into c.
func (c *Counters) Add(o Counters) {
	c.IndexProbes += o.IndexProbes
	c.IndexPruned += o.IndexPruned
	c.PlannerFallbacks += o.PlannerFallbacks
	c.VecTuples += o.VecTuples
	c.ScalarTuples += o.ScalarTuples
}

// Choose picks the access path and residual order for a single-table query.
// ts and ix may be nil (no ANALYZE, no indexes); force disables index paths
// for differential testing. The decision is conservative by construction:
// an index path is chosen only when the candidate set it yields provably
// contains every tuple the naive path would keep.
func Choose(ts *TableStats, ix *TableIndexes, conj []Conjunct, force bool) *Plan {
	p := &Plan{Probe: -1}
	rows := float64(1)
	if ts != nil {
		rows = float64(ts.Rows)
	}

	// Any comparison touching an uncertain column floors pdfs before the
	// probability conjuncts run; the PTI holds pristine pdfs, so its probes
	// are disabled for such queries (the btree path stays safe: it only
	// pre-filters on certain values).
	uncertainFloors := false
	for _, c := range conj {
		if c.Kind == ConjCmp && c.ColUncertain {
			uncertainFloors = true
		}
	}

	type option struct {
		kind     AccessKind
		col      string
		orig     int
		consumed bool
		sel      float64
		keys     keyRange
	}
	var opts []option
	var folds []keyRange
	for _, c := range conj {
		switch c.Kind {
		case ConjProbRange:
			if force || ix == nil || uncertainFloors || len(c.ProbCols) != 1 {
				continue
			}
			col := c.ProbCols[0]
			if _, ok := ix.pti[col]; !ok {
				continue
			}
			// The PTI returns exactly {mass >= p}: GE is answered outright,
			// GT keeps the conjunct for re-verification. Other operators
			// keep low-mass tuples and have no index path.
			if c.Op != region.GE && c.Op != region.GT {
				continue
			}
			sel := defaultSelectivity
			if ts != nil {
				sel = ts.Col(col).SelectivityProbRange(c.Lo, c.Hi, c.Threshold, ts.Rows)
			}
			opts = append(opts, option{kind: AccessPTI, col: col, orig: c.Orig, consumed: c.Op == region.GE, sel: sel})
		case ConjCmp:
			if force || ix == nil || c.Col == "" || c.ColUncertain {
				continue
			}
			if _, ok := ix.bt[c.Col]; !ok {
				continue
			}
			lo, hi, ok := keyBounds(c.Op, c.Val)
			if !ok {
				continue
			}
			var r *keyRange
			for i := range folds {
				if folds[i].col == c.Col {
					r = &folds[i]
				}
			}
			if r == nil {
				folds = append(folds, keyRange{col: c.Col, orig: c.Orig, lo: math.MinInt64, hi: math.MaxInt64})
				r = &folds[len(folds)-1]
			}
			r.n++
			r.lo, r.hi = max(r.lo, lo), min(r.hi, hi)
		}
	}
	// One btree option per column: the intersection of its conjuncts. The
	// candidate list is a superset (spill list, integer-widened float
	// bounds), so every folded conjunct stays in the residual.
	for _, r := range folds {
		sel := defaultSelectivity
		switch {
		case r.lo > r.hi:
			sel = 0
		case ts != nil && r.lo == r.hi:
			sel = ts.Col(r.col).SelectivityCmp(region.EQ, core.Int(r.lo))
		case ts != nil: // the keys lo..hi lie in [lo, hi+1) on the histogram's axis
			sel = ts.Col(r.col).SelectivityRange(float64(r.lo), float64(r.hi)+1)
		}
		opts = append(opts, option{kind: AccessBTree, col: r.col, orig: r.orig, sel: sel, keys: r})
	}
	// Most selective probe wins; PTI breaks ties (pruning pdf evaluations
	// is worth more than pruning certain comparisons). Position breaks the
	// rest, keeping the choice deterministic.
	sort.SliceStable(opts, func(i, j int) bool {
		if opts[i].sel != opts[j].sel {
			return opts[i].sel < opts[j].sel
		}
		if opts[i].kind != opts[j].kind {
			return opts[i].kind == AccessPTI
		}
		return opts[i].orig < opts[j].orig
	})
	if len(opts) > 0 {
		best := opts[0]
		p.Access = best.kind
		p.Col = best.col
		p.Probe = best.orig
		p.Consumed = best.consumed
		p.Folded, p.KeyLo, p.KeyHi = best.keys.n, best.keys.lo, best.keys.hi
		p.EstCand = best.sel * rows
	} else {
		p.EstCand = rows
		switch {
		case force:
			p.Reason = "forced"
		case ix == nil || (len(ix.pti) == 0 && len(ix.bt) == 0):
			p.Reason = "no index"
		case uncertainFloors:
			p.Reason = "uncertain column floored by comparison"
		default:
			p.Reason = "no indexable conjunct"
		}
		p.Fallback = ix.namesIndexed(conj)
	}

	// Residual probability conjuncts: cheapest-times-most-selective first.
	// Cost models the per-tuple work (range integration beats a cached
	// point probability only on the second visit, so it is priced higher);
	// the sort is stable, so unestimable conjuncts keep written order.
	type ranked struct {
		orig  int
		score float64
	}
	var probs []ranked
	est := 1.0
	for _, c := range conj {
		sel := defaultSelectivity
		cost := 1.0
		switch c.Kind {
		case ConjCmp:
			if ts != nil && c.Col != "" && !c.ColUncertain {
				sel = ts.Col(c.Col).SelectivityCmp(c.Op, c.Val)
			}
			est *= sel
			continue
		case ConjProb:
			cost = 1
		case ConjProbRange:
			cost = 2
			if ts != nil && len(c.ProbCols) == 1 {
				sel = ts.Col(c.ProbCols[0]).SelectivityProbRange(c.Lo, c.Hi, c.Threshold, ts.Rows)
			}
		}
		est *= sel
		if c.Orig == p.Probe && p.Consumed {
			continue
		}
		probs = append(probs, ranked{c.Orig, sel * cost})
	}
	sort.SliceStable(probs, func(i, j int) bool { return probs[i].score < probs[j].score })
	for _, r := range probs {
		p.ResidualProb = append(p.ResidualProb, r.orig)
	}
	p.EstRows = est * rows
	return p
}

// Describe renders the access-path decision for EXPLAIN.
func (p *Plan) Describe(conj []Conjunct) string {
	var b strings.Builder
	switch p.Access {
	case AccessScan:
		fmt.Fprintf(&b, "access: scan")
		if p.Reason != "" {
			fmt.Fprintf(&b, " (%s)", p.Reason)
		}
	default:
		fmt.Fprintf(&b, "access: %s(%s)", p.Access, p.Col)
		switch {
		case p.Folded > 1 && p.KeyLo > p.KeyHi:
			b.WriteString(" []") // contradictory bounds: spilled rows only
		case p.Folded > 1:
			fmt.Fprintf(&b, " [%s, %s]", renderKey(p.KeyLo), renderKey(p.KeyHi))
		default:
			for _, c := range conj {
				if c.Orig != p.Probe {
					continue
				}
				if c.Kind == ConjProbRange {
					fmt.Fprintf(&b, " Pr[%g,%g] %v %g", c.Lo, c.Hi, c.Op, c.Threshold)
				} else {
					fmt.Fprintf(&b, " %v %s", c.Op, c.Val.Render())
				}
			}
		}
		if p.Consumed {
			b.WriteString(" [consumed]")
		} else {
			b.WriteString(" [re-verified]")
		}
	}
	return b.String()
}

// renderKey prints one bound of a folded key range; the int64 extremes are
// the unbounded sides.
func renderKey(k int64) string {
	switch k {
	case math.MinInt64:
		return "-inf"
	case math.MaxInt64:
		return "+inf"
	}
	return fmt.Sprint(k)
}
