package bench

import (
	"fmt"
	"math"
	"time"

	"probdb/internal/core"
	"probdb/internal/dist"
	"probdb/internal/region"
	"probdb/internal/storage"
	"probdb/internal/workload"
)

// AblationFloorsRow compares symbolic floors against eager histogram
// conversion (DESIGN.md ablation 1): the same selection floor applied to N
// Gaussians symbolically ("[Gaus, Floor{…}]") versus by collapsing to a
// histogram first, then a follow-up range-probability computation on each.
type AblationFloorsRow struct {
	N             int
	SymbolicTime  time.Duration
	CollapsedTime time.Duration
	SymbolicErr   float64 // mean |error| vs closed form (0 by construction)
	CollapsedErr  float64
}

// AblationSymbolicFloors measures why the model keeps floors symbolic.
func AblationSymbolicFloors(n int, seed int64) AblationFloorsRow {
	gen := workload.NewGen(seed)
	readings := gen.Readings(n)
	queries := gen.RangeQueries(n)
	cut := region.Compare(region.LT, 50)

	exact := make([]float64, n)
	row := AblationFloorsRow{N: n}

	start := time.Now()
	var symVals []float64
	for i, rd := range readings {
		f := rd.Value.Floor(0, cut)
		symVals = append(symVals, dist.MassInterval(f, queries[i].Lo, queries[i].Hi))
	}
	row.SymbolicTime = time.Since(start)

	start = time.Now()
	var colVals []float64
	for i, rd := range readings {
		f := dist.Collapse(rd.Value, dist.DefaultOptions).Floor(0, cut)
		colVals = append(colVals, dist.MassInterval(f, queries[i].Lo, queries[i].Hi))
	}
	row.CollapsedTime = time.Since(start)

	for i, rd := range readings {
		exact[i] = dist.MassInterval(rd.Value.Floor(0, cut), queries[i].Lo, queries[i].Hi)
		row.SymbolicErr += math.Abs(symVals[i] - exact[i])
		row.CollapsedErr += math.Abs(colVals[i] - exact[i])
	}
	row.SymbolicErr /= float64(n)
	row.CollapsedErr /= float64(n)
	return row
}

// AblationMergeRow compares lazy versus eager dependency merging (§III-D
// leaves the choice to the implementation; DESIGN.md ablation 2). The
// workload applies a single-attribute selection to a table with two
// independent uncertain attributes: lazy evaluation floors the attribute's
// own small pdf; eager merging pays for the joint first. The support points
// of the pdfs the selection floored are the work measure (times are too
// short to compare reliably): an 8-point marginal per row lazily, its 64-point
// joint with the other attribute eagerly.
type AblationMergeRow struct {
	N           int
	LazyTime    time.Duration
	EagerTime   time.Duration
	LazyPoints  int
	EagerPoints int
}

// AblationLazyEagerMerge measures the cost of merging dependency sets
// before they are needed.
func AblationLazyEagerMerge(n int, seed int64) (AblationMergeRow, error) {
	build := func() (*core.Table, error) {
		tbl := core.MustTable("T", core.MustSchema(
			core.Column{Name: "x", Type: core.FloatType, Uncertain: true},
			core.Column{Name: "y", Type: core.FloatType, Uncertain: true},
		), nil, nil)
		gen := workload.NewGen(seed)
		for i := 0; i < n; i++ {
			err := tbl.Insert(core.Row{PDFs: []core.PDF{
				{Attrs: []string{"x"}, Dist: dist.Discretize(gen.Reading(0).Value, 8)},
				{Attrs: []string{"y"}, Dist: dist.Discretize(gen.Reading(0).Value, 8)},
			}})
			if err != nil {
				return nil, err
			}
		}
		return tbl, nil
	}
	row := AblationMergeRow{N: n}
	tbl, err := build()
	if err != nil {
		return row, err
	}
	sel := core.Cmp(core.Col("x"), region.LT, core.LitF(50))

	start := time.Now()
	lazy, err := tbl.Select(sel)
	if err != nil {
		return row, err
	}
	row.LazyTime = time.Since(start)

	start = time.Now()
	merged, err := tbl.MergeDeps("x", "y")
	if err != nil {
		return row, err
	}
	eager, err := merged.Select(sel)
	if err != nil {
		return row, err
	}
	row.EagerTime = time.Since(start)

	floored := func(tbl *core.Table) (n int) {
		for _, tup := range tbl.Tuples() {
			nd, _ := tbl.NodeOf(tup, "x")
			n += supportPoints(nd.Dist)
		}
		return n
	}
	row.LazyPoints, row.EagerPoints = floored(lazy), floored(eager)
	return row, nil
}

// supportPoints counts the support points of a discrete pdf: a factored
// product has as many as the joint it stands for.
func supportPoints(d dist.Dist) int {
	switch v := d.(type) {
	case *dist.Discrete:
		return len(v.Points())
	case *dist.Product:
		n := 1
		for _, f := range v.Factors() {
			n *= supportPoints(f)
		}
		return n
	}
	return 1
}

// AblationReplayRow compares the model's symbolic floor composition against
// the replay alternative the paper rejects (§III-A footnote: re-applying
// all prior operations "is very inefficient and will not scale with ... the
// number of operations"). Depth is the length of the selection chain.
type AblationReplayRow struct {
	Depth          int
	ComposedTime   time.Duration // incremental Floored composition (ours)
	ReplayTime     time.Duration // re-applying all i floors at step i
	ComposedFloors int           // Floor calls each strategy made: the work
	ReplayFloors   int           // measure, where times are too short to compare
}

// AblationHistoryReplay measures floor-composition scaling for chained
// selections over n Gaussians.
func AblationHistoryReplay(n int, depths []int, seed int64) []AblationReplayRow {
	gen := workload.NewGen(seed)
	readings := gen.Readings(n)
	maxDepth := 0
	for _, d := range depths {
		if d > maxDepth {
			maxDepth = d
		}
	}
	// A chain of progressively tighter two-sided cuts.
	cuts := make([]region.Set, maxDepth)
	for i := range cuts {
		w := 50.0 / float64(i+1)
		cuts[i] = region.NewSet(region.Closed(50-w, 50+w))
	}

	rows := make([]AblationReplayRow, 0, len(depths))
	for _, depth := range depths {
		row := AblationReplayRow{Depth: depth}
		floors := 0
		start := time.Now()
		for _, rd := range readings {
			d := rd.Value
			for i := 0; i < depth; i++ {
				d = d.Floor(0, cuts[i]) // Floored ∘ Floored intersects regions
				floors++
			}
			_ = d.Mass()
		}
		row.ComposedTime, row.ComposedFloors = time.Since(start), floors

		floors = 0
		start = time.Now()
		for _, rd := range readings {
			// Replay: at every step rebuild from the base pdf by
			// re-applying every floor so far.
			for step := 1; step <= depth; step++ {
				d := rd.Value
				for i := 0; i < step; i++ {
					d = d.Floor(0, cuts[i])
					floors++
				}
				_ = d.Mass()
			}
		}
		row.ReplayTime, row.ReplayFloors = time.Since(start), floors
		rows = append(rows, row)
	}
	return rows
}

// AblationPoolRow is one point of the buffer-pool sensitivity sweep
// (DESIGN.md ablation 4): page reads and time of a Fig. 5-style scan as the
// pool grows from a sliver of the file to larger than it.
type AblationPoolRow struct {
	PoolPages int
	FilePages int
	ScanTime  time.Duration
	PageReads uint64
}

// AblationBufferPool sweeps the pool size over a fixed histogram-represented
// table and scans it twice, reporting the second (warm-if-it-fits) scan.
func AblationBufferPool(nTuples int, poolSizes []int, seed int64) ([]AblationPoolRow, error) {
	gen := workload.NewGen(seed)
	recs := make([][]byte, nTuples)
	for i := range recs {
		rd := gen.Reading(int64(i))
		recs[i] = workload.EncodeReading(workload.Reading{RID: rd.RID, Value: dist.ToHistogram(rd.Value, 5)})
	}
	var rows []AblationPoolRow
	for _, pp := range poolSizes {
		pool := storage.NewPool(storage.NewMemPager(), pp)
		heap := storage.NewHeap(pool)
		for _, rec := range recs {
			if _, err := heap.Append(rec); err != nil {
				return nil, err
			}
		}
		scan := func() error {
			return heap.Scan(func(_ storage.RID, rec []byte) error {
				d, err := workload.DecodeReadingValue(rec)
				if err != nil {
					return err
				}
				_ = dist.MassInterval(d, 40, 60)
				return nil
			})
		}
		if err := scan(); err != nil { // first pass warms what fits
			return nil, err
		}
		pool.ResetStats()
		start := time.Now()
		if err := scan(); err != nil {
			return nil, err
		}
		rows = append(rows, AblationPoolRow{
			PoolPages: pp,
			FilePages: int(heap.NumPages()),
			ScanTime:  time.Since(start),
			PageReads: pool.Stats().PageReads,
		})
	}
	return rows, nil
}

// FormatAblations renders all four ablation studies.
func FormatAblations(fl AblationFloorsRow, mg AblationMergeRow, rp []AblationReplayRow, bp []AblationPoolRow) string {
	s := "Ablation 1 — symbolic floors vs eager histogram conversion\n"
	s += fmt.Sprintf("  n=%d  symbolic: %v (err %.2g)   collapsed: %v (err %.2g)\n",
		fl.N, fl.SymbolicTime.Round(time.Microsecond), fl.SymbolicErr,
		fl.CollapsedTime.Round(time.Microsecond), fl.CollapsedErr)
	s += "Ablation 2 — lazy vs eager dependency merging (single-attribute selection)\n"
	s += fmt.Sprintf("  n=%d  lazy: %v (%d support points floored)   eager: %v (%d)\n",
		mg.N, mg.LazyTime.Round(time.Microsecond), mg.LazyPoints, mg.EagerTime.Round(time.Microsecond), mg.EagerPoints)
	s += "Ablation 3 — floor composition vs operation replay (selection chains)\n"
	for _, r := range rp {
		s += fmt.Sprintf("  depth=%-3d composed: %-12v replay: %-12v floors: %d vs %d\n",
			r.Depth, r.ComposedTime.Round(time.Microsecond), r.ReplayTime.Round(time.Microsecond), r.ComposedFloors, r.ReplayFloors)
	}
	s += "Ablation 4 — buffer pool sensitivity (warm scan)\n"
	for _, r := range bp {
		s += fmt.Sprintf("  pool=%-5d filePages=%-5d reads=%-6d time=%v\n",
			r.PoolPages, r.FilePages, r.PageReads, r.ScanTime.Round(time.Microsecond))
	}
	return s
}

// AblationDepthRow compares equi-width and equi-depth histograms at the
// same bucket budget on the paper's range-query workload (ablation 5: the
// paper's Hist is equi-width; equi-depth is the standard DB alternative).
type AblationDepthRow struct {
	Bins         int
	EquiWidthErr float64
	EquiDepthErr float64
	DiscreteErr  float64
}

// AblationEquiDepth measures mean absolute range-query error per
// representation at the given budgets.
func AblationEquiDepth(nReadings, nQueries int, bins []int, seed int64) []AblationDepthRow {
	gen := workload.NewGen(seed)
	readings := gen.Readings(nReadings)
	queries := gen.RangeQueries(nQueries)
	rows := make([]AblationDepthRow, 0, len(bins))
	for _, b := range bins {
		var ew, ed, dc errAccum
		for _, rd := range readings {
			w := dist.ToHistogram(rd.Value, b)
			d := dist.ToHistogramEquiDepth(rd.Value, b)
			s := dist.Discretize(rd.Value, b)
			for _, q := range queries {
				exact := dist.MassInterval(rd.Value, q.Lo, q.Hi)
				ew.add(math.Abs(dist.MassInterval(w, q.Lo, q.Hi) - exact))
				ed.add(math.Abs(dist.MassInterval(d, q.Lo, q.Hi) - exact))
				dc.add(math.Abs(dist.MassInterval(s, q.Lo, q.Hi) - exact))
			}
		}
		rows = append(rows, AblationDepthRow{
			Bins: b, EquiWidthErr: ew.mean(), EquiDepthErr: ed.mean(), DiscreteErr: dc.mean(),
		})
	}
	return rows
}

// FormatAblationDepth renders ablation 5.
func FormatAblationDepth(rows []AblationDepthRow) string {
	s := "Ablation 5 — equi-width vs equi-depth histograms (mean |error| of range-query mass)\n"
	s += fmt.Sprintf("  %-6s %-12s %-12s %-12s\n", "bins", "equi-width", "equi-depth", "discrete")
	for _, r := range rows {
		s += fmt.Sprintf("  %-6d %-12.5f %-12.5f %-12.5f\n", r.Bins, r.EquiWidthErr, r.EquiDepthErr, r.DiscreteErr)
	}
	return s
}
