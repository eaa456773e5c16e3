package query

import (
	"fmt"
	"sort"
	"strings"

	"probdb/internal/core"
	"probdb/internal/index"
	"probdb/internal/plan"
)

// This file routes SELECT/EXPLAIN through the cost-based planner of
// internal/plan and owns the planner's catalog state: per-table statistics
// (ANALYZE) and per-table index sets (CREATE INDEX), maintained under the
// same write lock as the DML that invalidates them.
//
// Correctness discipline — the planner must be invisible in the results:
//   - Comparison conjuncts always execute in written order within one
//     Select call; their pdf floors are order-sensitive at the bit level.
//   - Probability-threshold conjuncts are pure filters (no pdf mutation),
//     so reordering them is byte-exact.
//   - An index probe only ever narrows the scan to a candidate superset of
//     the tuples the probed conjunct keeps; unless the probe answers the
//     conjunct exactly (PTI with >=), the conjunct stays in the residual
//     and re-verifies every candidate.
//   - The PTI holds pristine base pdfs, so PTI probes are disabled whenever
//     a comparison conjunct would floor an uncertain column first.

// SetForceScan disables index access paths (the planner still orders
// residual conjuncts). The differential suite uses it to compare planner
// results against forced full scans.
func (db *DB) SetForceScan(on bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.forceScan = on
}

// TableStats returns the ANALYZE statistics for a table, or nil.
func (db *DB) TableStats(name string) *plan.TableStats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.stats[name]
}

// InstallStats installs externally restored statistics (manifest recovery).
func (db *DB) InstallStats(name string, ts *plan.TableStats) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.stats[name] = ts
}

// IndexedCols reports the indexed columns of a table and their access-path
// kind ("pti" or "btree"), for DESCRIBE and manifest persistence.
func (db *DB) IndexedCols(name string) map[string]string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.indexes[name].Cols()
}

// execAnalyze collects statistics for one table, or all tables when the
// statement names none. Runs under the catalog write lock.
func (db *DB) execAnalyze(s Analyze) (*Result, error) {
	names := []string{s.Table}
	if s.Table == "" {
		names = names[:0]
		for n := range db.tables {
			names = append(names, n)
		}
		sort.Strings(names)
	}
	rows := 0
	for _, n := range names {
		t, ok := db.tables[n]
		if !ok {
			return nil, fmt.Errorf("query: no table %q", n)
		}
		ts, err := plan.Analyze(t)
		if err != nil {
			return nil, err
		}
		db.stats[n] = ts
		rows += t.Len()
	}
	return &Result{
		Message:  fmt.Sprintf("analyzed %d table(s), %d rows", len(names), rows),
		Affected: rows,
	}, nil
}

// execCreateIndex builds an index over one column: a PTI when the column is
// uncertain, a btree otherwise. Runs under the catalog write lock.
func (db *DB) execCreateIndex(s CreateIndex) (*Result, error) {
	t, ok := db.tables[s.Table]
	if !ok {
		return nil, fmt.Errorf("query: no table %q", s.Table)
	}
	ix := db.indexes[s.Table]
	if ix == nil {
		ix = plan.NewTableIndexes()
	}
	if err := ix.Create(t, s.Col); err != nil {
		return nil, err
	}
	db.indexes[s.Table] = ix // only a table with an index has an entry
	kind := ix.Cols()[s.Col]
	return &Result{Message: fmt.Sprintf("created %s index %s on %s(%s)", kind, s.Name, s.Table, s.Col)}, nil
}

// noteInserted maintains indexes and invalidates stats after an INSERT
// appended the tuples t.Tuples()[from:].
func (db *DB) noteInserted(name string, t *core.Table, from int) error {
	if ix := db.indexes[name]; ix != nil {
		for _, tup := range t.Tuples()[from:] {
			if err := ix.NoteInsert(t, tup); err != nil {
				return err
			}
		}
	}
	return nil
}

// noteDeleted maintains indexes after a DELETE removed the given tuples.
func (db *DB) noteDeleted(name string, removed []*core.Tuple) error {
	ix := db.indexes[name]
	if ix == nil {
		return nil
	}
	for _, tup := range removed {
		if err := ix.NoteDelete(tup); err != nil {
			return err
		}
	}
	return nil
}

// dropPlannerState discards stats and indexes when a table is dropped.
func (db *DB) dropPlannerState(name string) {
	delete(db.stats, name)
	delete(db.indexes, name)
}

// pipelineResult is the planning record of the filtering stages of a
// SELECT: the access-path decision, the probe counters and the kernels whose
// reports EXPLAIN and the Result's planner counters are built from.
type pipelineResult struct {
	plan     *plan.Plan      // nil when the naive multi-table path ran
	join     *joinPlan       // the multi-table path's conjunct placement, else nil
	conj     []plan.Conjunct // planner's view of the WHERE clause
	hasStats bool
	counters plan.Counters

	// kernels are the filter kernels this query planned, in stage order.
	// harvestKernels snapshots their reports after execution — kernels count
	// on worker goroutines while batches stream, so reports are meaningful
	// only once the tree has drained.
	kernels []kernelReporter
	reports []core.KernelReport
}

// kernelReporter is the facet of Selection/ProbSelection the query layer
// keeps: a post-execution evaluation summary.
type kernelReporter interface {
	Report() core.KernelReport
}

// harvestKernels folds every kernel's report into the planner counters and
// keeps the per-stage reports for EXPLAIN. Call exactly once, after the
// query's filter stages have run.
func (pr *pipelineResult) harvestKernels() {
	for _, k := range pr.kernels {
		rep := k.Report()
		pr.counters.VecTuples += rep.Vec
		pr.counters.ScalarTuples += rep.Scalar
		pr.reports = append(pr.reports, rep)
	}
}

// planAccess runs the access-path half of a single-table SELECT: choose a
// plan, probe the index, and narrow the scan to the candidate set. It
// returns the source table the filter stages run over — a frozen copy of
// the base table for a scan plan, or a view of the index candidates Restrict
// copied — and the plan record with the probe counters filled in.
func (db *DB) planAccess(s SelectStmt, base *core.Table) (*core.Table, *pipelineResult) {
	name := s.From[0].Name
	t := base.Freeze()
	conj := db.planConjuncts(t, s.Where)
	stats := db.stats[name]
	ix := db.indexes[name]
	pl := plan.Choose(stats, ix, conj, db.forceScan)
	pr := &pipelineResult{plan: pl, conj: conj, hasStats: stats != nil}

	acc := t
	if pl.Access != plan.AccessScan {
		var cand []int64
		ok := false
		switch pl.Access {
		case plan.AccessPTI:
			probed := s.Where[pl.Probe]
			var st index.Stats
			if cand, st, ok = ix.ProbePTI(pl.Col, probed.Lo, probed.Hi, probed.Threshold); ok {
				// Every live pdf the probe did not integrate is work the
				// naive scan would have done.
				if skipped := t.Len() - st.Verified; skipped > 0 {
					pr.counters.IndexPruned += uint64(skipped)
				}
			}
		case plan.AccessBTree:
			if cand, ok = ix.ProbeKeys(pl.Col, pl.KeyLo, pl.KeyHi); ok {
				if skipped := t.Len() - len(cand); skipped > 0 {
					pr.counters.IndexPruned += uint64(skipped)
				}
			}
		}
		if !ok {
			// Probe failed at runtime: degrade to the scan plan — never to
			// a wrong answer.
			pl.Access = plan.AccessScan
			pl.Consumed = false
			pl.Reason = "probe degraded to scan"
			pl.ResidualProb = residualAll(conj)
			pr.counters.PlannerFallbacks++
		} else {
			pr.counters.IndexProbes++
			acc = t.View(fmt.Sprintf("%s[%s:%s]", t.Name, pl.Access, pl.Col), ix.Restrict(t, cand))
		}
	} else if pl.Fallback {
		pr.counters.PlannerFallbacks++
	}
	return acc, pr
}

// residualAll returns every probability conjunct's position in written
// order, for plans degraded after Choose.
func residualAll(conj []plan.Conjunct) []int {
	var out []int
	for _, c := range conj {
		if c.Kind != plan.ConjCmp {
			out = append(out, c.Orig)
		}
	}
	return out
}

// planConjuncts translates the WHERE clause into the planner's view,
// resolving column certainty against the table's schema.
func (db *DB) planConjuncts(t *core.Table, where []Cond) []plan.Conjunct {
	out := make([]plan.Conjunct, 0, len(where))
	uncertain := func(name string) (bool, bool) {
		col, ok := t.Schema().Lookup(name)
		return col.Uncertain, ok
	}
	for i, c := range where {
		pc := plan.Conjunct{Orig: i, Op: c.Op}
		switch c.Kind {
		case CondCmp:
			pc.Kind = plan.ConjCmp
			switch {
			case c.Left.IsCol && !c.Right.IsCol:
				pc.Col, pc.Val = c.Left.Col, c.Right.Lit
			case c.Right.IsCol && !c.Left.IsCol:
				pc.Col, pc.Val, pc.Op = c.Right.Col, c.Left.Lit, c.Op.Flip()
			}
			for _, o := range []Operand{c.Left, c.Right} {
				if !o.IsCol {
					continue
				}
				if unc, ok := uncertain(o.Col); ok && unc {
					pc.ColUncertain = true
				}
			}
			if pc.Col != "" {
				if _, ok := uncertain(pc.Col); !ok {
					pc.Col = "" // unknown column: let Select report it
				}
			}
		case CondProb:
			pc.Kind = plan.ConjProb
			pc.ProbCols = c.ProbCols
			pc.Threshold = c.Threshold
		case CondProbRange:
			pc.Kind = plan.ConjProbRange
			pc.ProbCols = c.ProbCols
			pc.Lo, pc.Hi, pc.Threshold = c.Lo, c.Hi, c.Threshold
		}
		out = append(out, pc)
	}
	return out
}

// describePlan renders the physical plan for EXPLAIN.
func describePlan(pr *pipelineResult) string {
	var b strings.Builder
	if pr.plan == nil {
		b.WriteString("access: scan (multi-table: planner handles single-table queries)")
		b.WriteString(pr.join.describe())
	} else {
		b.WriteString(pr.plan.Describe(pr.conj))
		if pr.hasStats {
			fmt.Fprintf(&b, "\nest rows: %.1f (candidates: %.1f)", pr.plan.EstRows, pr.plan.EstCand)
		} else {
			b.WriteString("\nest rows: n/a (run ANALYZE)")
		}
	}
	c := pr.counters
	fmt.Fprintf(&b, "\nindex: %d probes, %d pruned, %d fallbacks",
		c.IndexProbes, c.IndexPruned, c.PlannerFallbacks)
	for _, rep := range pr.reports {
		b.WriteString("\n" + describeKernel(rep))
	}
	return b.String()
}

// describeKernel renders one filter kernel's strategy line for EXPLAIN:
// which evaluation path its tuples took, over which distribution families
// and how many columnar runs.
func describeKernel(rep core.KernelReport) string {
	if rep.Vec == 0 && rep.Scalar > 0 {
		return fmt.Sprintf("kernel %s: scalar fallback (%d tuples)", rep.Name, rep.Scalar)
	}
	fams := "none"
	if len(rep.Families) > 0 {
		fams = strings.Join(rep.Families, ",")
	}
	s := fmt.Sprintf("kernel %s: vectorized(%s×%d runs, %d tuples)", rep.Name, fams, rep.Runs, rep.Vec)
	if rep.Scalar > 0 {
		s += fmt.Sprintf(" + scalar fallback (%d tuples)", rep.Scalar)
	}
	return s
}
