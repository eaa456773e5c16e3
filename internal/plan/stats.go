// Package plan is the cost-based query planner: a statistics catalog
// populated by ANALYZE, index bookkeeping for the PTI and btree access
// paths, and the access-path/conjunct-ordering decision itself. The planner
// never changes results — only which tuples have their pdfs evaluated (the
// expensive operation a probabilistic DBMS must minimize) and in what order
// the residual filters run.
package plan

import (
	"encoding/json"
	"fmt"
	"math"

	"probdb/internal/core"
	"probdb/internal/dist"
	"probdb/internal/region"
)

// histBuckets is the resolution of every histogram ANALYZE builds. Equi-width
// keeps the manifest encoding trivial and estimation O(1) per bucket.
const histBuckets = 32

// defaultSelectivity is assumed for any predicate the catalog cannot
// estimate (no ANALYZE yet, unknown column, non-numeric comparison).
const defaultSelectivity = 0.5

// Histogram is an equi-width histogram over [Lo, Hi]. For a certain column
// the weights are row counts; for an uncertain column they are expected
// probability mass (each row contributes its pdf's exact mass inside each
// bucket), so the total weight is the column's cumulative mass, not its row
// count.
type Histogram struct {
	Lo      float64   `json:"lo"`
	Hi      float64   `json:"hi"`
	Weights []float64 `json:"weights"`
}

// total returns the histogram's cumulative weight.
func (h *Histogram) total() float64 {
	var s float64
	for _, w := range h.Weights {
		s += w
	}
	return s
}

// massBelow returns the cumulative weight left of x, interpolating linearly
// inside the bucket containing x.
func (h *Histogram) massBelow(x float64) float64 {
	if h == nil || len(h.Weights) == 0 || h.Hi <= h.Lo {
		return 0
	}
	if x <= h.Lo {
		return 0
	}
	if x >= h.Hi {
		return h.total()
	}
	width := (h.Hi - h.Lo) / float64(len(h.Weights))
	pos := (x - h.Lo) / width
	idx := int(pos)
	var s float64
	for i := 0; i < idx; i++ {
		s += h.Weights[i]
	}
	return s + h.Weights[idx]*(pos-float64(idx))
}

// massIn returns the cumulative weight inside [lo, hi].
func (h *Histogram) massIn(lo, hi float64) float64 {
	if hi < lo {
		return 0
	}
	return h.massBelow(hi) - h.massBelow(lo)
}

// ColStats is the ANALYZE output for one visible column.
type ColStats struct {
	Name      string     `json:"name"`
	Uncertain bool       `json:"uncertain"`
	Nulls     int64      `json:"nulls,omitempty"`    // certain: NULL count
	Distinct  int64      `json:"distinct,omitempty"` // certain: exact distinct non-null values
	TotalMass float64    `json:"total_mass,omitempty"`
	Hist      *Histogram `json:"hist,omitempty"`
}

// TableStats is the ANALYZE output for one table.
type TableStats struct {
	Rows int64                `json:"rows"`
	Cols map[string]*ColStats `json:"cols"`
}

// Analyze scans the table once and builds its statistics: the row count,
// a value histogram + exact distinct count per certain column, and an
// expected-mass histogram over the support per uncertain column.
func Analyze(t *core.Table) (*TableStats, error) {
	ts := &TableStats{Rows: int64(t.Len()), Cols: map[string]*ColStats{}}
	for _, col := range t.Schema().Columns() {
		var cs *ColStats
		var err error
		if col.Uncertain {
			cs, err = analyzeUncertain(t, col.Name)
		} else {
			cs = analyzeCertain(t, col.Name)
		}
		if err != nil {
			return nil, err
		}
		ts.Cols[col.Name] = cs
	}
	return ts, nil
}

func analyzeCertain(t *core.Table, name string) *ColStats {
	cs := &ColStats{Name: name}
	distinct := map[core.Value]struct{}{}
	var vals []float64
	for _, tup := range t.Tuples() {
		v, _ := t.Value(tup, name)
		if v.IsNull() {
			cs.Nulls++
			continue
		}
		distinct[v] = struct{}{}
		// A NaN or an infinity has no bucket in a finite domain (the SQL
		// parser refuses both; the core API does not).
		if f, ok := v.AsFloat(); ok && !math.IsNaN(f) && !math.IsInf(f, 0) {
			vals = append(vals, f)
		}
	}
	cs.Distinct = int64(len(distinct))
	if len(vals) == 0 {
		return cs
	}
	lo, hi := vals[0], vals[0]
	for _, f := range vals[1:] {
		lo, hi = math.Min(lo, f), math.Max(hi, f)
	}
	if hi == lo {
		hi = lo + 1 // degenerate domain: one bucket catches everything
	}
	h := &Histogram{Lo: lo, Hi: hi, Weights: make([]float64, histBuckets)}
	width := (hi - lo) / histBuckets
	for _, f := range vals {
		i := int((f - lo) / width)
		if i >= histBuckets {
			i = histBuckets - 1
		}
		h.Weights[i]++
	}
	cs.Hist = h
	return cs
}

func analyzeUncertain(t *core.Table, name string) (*ColStats, error) {
	cs := &ColStats{Name: name, Uncertain: true}
	type sup struct {
		d      dist.Dist
		lo, hi float64
	}
	var sups []sup
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, tup := range t.Tuples() {
		d, err := t.DistOf(tup, name)
		if err != nil {
			return nil, err
		}
		s := d.Support()[0]
		sups = append(sups, sup{d: d, lo: s.Lo, hi: s.Hi})
		lo, hi = math.Min(lo, s.Lo), math.Max(hi, s.Hi)
	}
	if len(sups) == 0 || hi <= lo {
		return cs, nil
	}
	h := &Histogram{Lo: lo, Hi: hi, Weights: make([]float64, histBuckets)}
	width := (hi - lo) / histBuckets
	for _, s := range sups {
		cs.TotalMass += s.d.Mass()
		// Exact expected mass: integrate the pdf over each bucket its
		// support overlaps (typically a handful of the 32).
		first := int((s.lo - lo) / width)
		last := int((s.hi - lo) / width)
		if last >= histBuckets {
			last = histBuckets - 1
		}
		for i := first; i <= last; i++ {
			blo := lo + float64(i)*width
			h.Weights[i] += dist.MassInterval(s.d, math.Max(blo, s.lo), math.Min(blo+width, s.hi))
		}
	}
	cs.Hist = h
	return cs, nil
}

// Col returns the named column's stats, or nil.
func (ts *TableStats) Col(name string) *ColStats {
	if ts == nil {
		return nil
	}
	return ts.Cols[name]
}

// SelectivityCmp estimates the fraction of rows a "col op literal"
// comparison keeps on a certain column.
func (cs *ColStats) SelectivityCmp(op region.Op, v core.Value) float64 {
	if cs == nil || cs.Uncertain {
		return defaultSelectivity
	}
	rows := cs.Nulls + nonNullRows(cs)
	if rows == 0 {
		return defaultSelectivity
	}
	switch op {
	case region.EQ:
		if cs.Distinct > 0 {
			return clamp01(float64(nonNullRows(cs)) / float64(rows) / float64(cs.Distinct))
		}
		return defaultSelectivity
	case region.NE:
		if cs.Distinct > 0 {
			return clamp01(1 - 1/float64(cs.Distinct))
		}
		return defaultSelectivity
	}
	f, ok := v.AsFloat()
	if !ok {
		return defaultSelectivity
	}
	switch op {
	case region.LT, region.LE:
		return cs.SelectivityRange(math.Inf(-1), f)
	case region.GT, region.GE:
		return cs.SelectivityRange(f, math.Inf(1))
	}
	return defaultSelectivity
}

// SelectivityRange estimates the fraction of rows whose value on a certain
// column lies in [lo, hi], as interpolated histogram mass.
func (cs *ColStats) SelectivityRange(lo, hi float64) float64 {
	if cs == nil || cs.Uncertain || cs.Hist == nil {
		return defaultSelectivity
	}
	rows := cs.Nulls + nonNullRows(cs)
	if rows == 0 || cs.Hist.total() == 0 {
		return defaultSelectivity
	}
	return clamp01(cs.Hist.massIn(lo, hi) / float64(rows))
}

func nonNullRows(cs *ColStats) int64 {
	if cs.Hist == nil {
		return cs.Distinct
	}
	return int64(cs.Hist.total())
}

// SelectivityProbRange estimates the fraction of rows whose probability mass
// inside [lo, hi] reaches the threshold p, using the Markov bound
// Pr(mass >= p) <= E[mass]/p over the expected-mass histogram.
func (cs *ColStats) SelectivityProbRange(lo, hi, p float64, rows int64) float64 {
	if cs == nil || !cs.Uncertain || cs.Hist == nil || rows == 0 || p <= 0 {
		return defaultSelectivity
	}
	expected := cs.Hist.massIn(lo, hi) / float64(rows)
	return clamp01(expected / p)
}

func clamp01(x float64) float64 { return math.Max(0, math.Min(1, x)) }

// Encode serializes the stats for the manifest (one line, no spaces or
// newlines inside thanks to JSON).
func (ts *TableStats) Encode() ([]byte, error) { return json.Marshal(ts) }

// DecodeStats parses a manifest stats payload.
func DecodeStats(b []byte) (*TableStats, error) {
	var ts TableStats
	if err := json.Unmarshal(b, &ts); err != nil {
		return nil, fmt.Errorf("plan: bad stats payload: %w", err)
	}
	return &ts, nil
}
