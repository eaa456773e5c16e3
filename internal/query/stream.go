package query

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"probdb/internal/core"
	"probdb/internal/pipe"
)

// This file is how a SELECT executes: the statement compiles to a tree of
// internal/pipe operators over the compiled core kernels, which holds
// O(batch) rows, stops the scan early under LIMIT, and can hand batches to
// a sink before the scan finishes. Exec drains the tree into a Result
// table; ExecStream runs the same tree into the caller's sink.
//
// Plan shape:
//
//	Scan(access path) → Filter(all comparison atoms, one kernel)
//	                  → ProbFilter* (planner's residual order)
//	                  → TopK(k) | Sort | Limit
//	                  → Project (by column offset)
//
// pipe.Run drives the root and hands the sink full batches except the last.
//
// Ownership: the tuples the tree produces share the base tables' pdf nodes,
// which point at their base pdfs, so a result row keeps its history alive
// however long the caller holds it and nothing is released by hand.

// PrepareSelect is the build step of a SELECT, and the one place a SELECT
// is planned. Under the catalog read lock it resolves every FROM table to a
// frozen copy (core.Table.Freeze), chooses the access paths, probes
// the indexes and builds the operator tree; the run func it returns is the
// run step and takes no lock.
//
// Invariant: once PrepareSelect returns, the tree reads only the frozen
// tables (with the batch encodings they share, which cover only rows every
// sharer agrees on) and the index candidates TableIndexes.Restrict copied —
// never the catalog, a live table or an index — so run may go on while
// other sessions write this DB, and it sees exactly the rows present at the
// build. A caller that
// serializes statements above the catalog (the server's engine lock) calls
// PrepareSelect under that lock, so no reader plans between two statements
// of one commit.
//
// run must be called exactly once; it closes the tree. A plain SELECT
// streams its result batches to sink as ExecStream describes. An aggregate
// consumes its whole filtered input by definition: its tree ends at the
// filter stages, run folds the drained rows and returns the aggregate's
// message without calling sink.
func (db *DB) PrepareSelect(s SelectStmt) (run func(ctx context.Context, sink func(hdr *core.Table, batch []*core.Tuple) error) (*Result, error), err error) {
	root, pr, err := db.buildSelectTree(s)
	if err != nil {
		return nil, err
	}
	return func(ctx context.Context, sink func(hdr *core.Table, batch []*core.Tuple) error) (*Result, error) {
		if s.Agg != "" {
			return drainSelect(ctx, s, root, pr)
		}
		rows := 0
		err := pipe.Run(ctx, root, func(hdr *core.Table, batch []*core.Tuple) error {
			rows += len(batch)
			return sink(hdr, batch)
		})
		if err != nil {
			return nil, err
		}
		pr.harvestKernels()
		return &Result{Affected: rows, Planner: pr.counters}, nil
	}, nil
}

// execSelect is Exec's SELECT: the build step, then the tree drained with
// no lock held into a Result table, or folded by execAggregate.
func (db *DB) execSelect(s SelectStmt) (*Result, error) {
	root, pr, err := db.buildSelectTree(s)
	if err != nil {
		return nil, err
	}
	return drainSelect(context.Background(), s, root, pr)
}

// drainSelect is the run step that materializes: it drains a built tree
// into a Result table, or for an aggregate into the aggregate's message.
func drainSelect(ctx context.Context, s SelectStmt, root pipe.Operator, pr *pipelineResult) (*Result, error) {
	acc, err := pipe.Drain(ctx, root)
	if err != nil {
		return nil, err
	}
	pr.harvestKernels()
	if s.Agg != "" {
		r, err := execAggregate(s, acc)
		if err != nil {
			return nil, err
		}
		r.Planner = pr.counters
		return r, nil
	}
	return &Result{Table: acc, Affected: acc.Len(), Planner: pr.counters}, nil
}

// ExecStream parses and executes one statement, streaming a SELECT's
// result batches to sink as they are produced: the first batch arrives
// before the scan has finished. The SELECT is planned under the catalog
// read lock (PrepareSelect) and runs with no lock held, so sink may itself
// write this DB; the stream still sees exactly the rows present when the
// statement was planned. sink is called at least once (with a nil batch
// when the result is empty), its header argument describing the result
// shape; a batch is valid only for the duration of the call
// (pipe.Operator's batch-lifetime rule). A sink error — typically a dead
// client connection — aborts the tree mid-stream and is returned.
//
// Statements without streamable row output (DDL, DML, aggregates, EXPLAIN)
// execute normally: the Result carries their message/table and sink is
// never called.
func (db *DB) ExecStream(ctx context.Context, sql string, sink func(hdr *core.Table, batch []*core.Tuple) error) (*Result, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	s, ok := stmt.(SelectStmt)
	if !ok {
		return db.ExecStmt(stmt)
	}
	run, err := db.PrepareSelect(s)
	if err != nil {
		return nil, err
	}
	return run(ctx, sink)
}

// buildSelectTree is the build step behind Exec and ExecStream: under the
// catalog read lock, the filter tree, then (for everything but an
// aggregate) ordering, limit and projection.
func (db *DB) buildSelectTree(s SelectStmt) (pipe.Operator, *pipelineResult, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	root, pr, err := db.buildFilterTree(s)
	if err != nil || s.Agg != "" {
		return root, pr, err
	}
	if root, err = addOrderStages(root, s); err != nil {
		root.Close() //nolint:errcheck
		return nil, nil, err
	}
	return root, pr, nil
}

// buildFilterTree compiles FROM + WHERE into a streaming operator tree:
// the access-path leaf, one Filter kernel holding every comparison atom in
// written order (their pdf floors are order-sensitive at the bit level),
// and ProbFilters for the probability conjuncts. Callers hold (at least)
// the read lock.
func (db *DB) buildFilterTree(s SelectStmt) (pipe.Operator, *pipelineResult, error) {
	if len(s.From) == 1 {
		if t, ok := db.tables[s.From[0].Name]; ok {
			return db.buildPlannedTree(s, t)
		}
	}
	return db.buildNaiveTree(s)
}

// buildPlannedTree is the single-table path: the planner chooses the
// access path (planAccess), then the residual conjuncts stream.
func (db *DB) buildPlannedTree(s SelectStmt, base *core.Table) (pipe.Operator, *pipelineResult, error) {
	src, pr := db.planAccess(s, base)
	var at []int
	for i, c := range s.Where {
		if c.Kind == CondCmp {
			at = append(at, i)
		}
	}
	root, err := addConjuncts(pr, pipe.NewScan(src), s.Where, append(at, pr.plan.ResidualProb...))
	return root, pr, err
}

// joinEntry is one FROM entry of a multi-table statement: its qualified
// view and the WHERE conjuncts (by position) that run under the join, over
// this entry alone.
type joinEntry struct {
	name   string
	view   *core.Table
	pushed []int
}

// joinPlan records where each WHERE conjunct of a multi-table statement
// runs, for EXPLAIN.
type joinPlan struct {
	where   []Cond
	entries []joinEntry
	above   []int // conjuncts left above the join, in written order
}

// describe renders the placement for EXPLAIN: one line per FROM entry with
// the conjuncts that run under the join, then the ones left above it.
func (jp *joinPlan) describe() string {
	conds := func(at []int) string {
		if len(at) == 0 {
			return "-"
		}
		parts := make([]string, len(at))
		for i, w := range at {
			var err error
			if parts[i], err = renderCond(jp.where[w]); err != nil {
				parts[i] = "?"
			}
		}
		return strings.Join(parts, " AND ")
	}
	var b strings.Builder
	for _, e := range jp.entries {
		fmt.Fprintf(&b, "\n  under the join, on %s: %s", e.name, conds(e.pushed))
	}
	fmt.Fprintf(&b, "\n  above the join: %s", conds(jp.above))
	return b.String()
}

// planJoin resolves the FROM entries and decides, per WHERE conjunct,
// whether it runs under the join. A conjunct moves under the join when it
// names columns of exactly one entry and cannot change a pdf: a comparison
// over certain columns, or a probability threshold over an entry whose pdfs
// no conjunct left above floors or merges (a threshold written after such a
// conjunct reads the changed pdf). Filtering an entry before it is paired
// yields the pairs the filter would have kept afterwards, in the same
// order. Everything else — every comparison naming an uncertain column,
// whose floors are order-sensitive at the bit level, and anything spanning
// two entries — stays above, in written order.
func (db *DB) planJoin(s SelectStmt) (*joinPlan, error) {
	jp := &joinPlan{where: s.Where, entries: make([]joinEntry, len(s.From))}
	for i, ref := range s.From {
		view, err := db.resolveRef(ref, true)
		if err != nil {
			return nil, err
		}
		jp.entries[i] = joinEntry{name: ref.Name, view: view}
		if ref.Alias != "" {
			jp.entries[i].name = ref.Alias
		}
	}
	// owner reports the one entry holding all the named columns (-1 when
	// they span entries, or none is named) and whether all are certain. An
	// unknown column answers (-1, false): the conjunct stays above, where
	// planning it reports the name.
	owner := func(cols ...string) (entry int, certain bool) {
		entry, certain = -1, true
		spans := false
		for n, name := range cols {
			at := -1
			for i := range jp.entries {
				if col, ok := jp.entries[i].view.Schema().Lookup(name); ok {
					at, certain = i, certain && !col.Uncertain
					break
				}
			}
			if at < 0 {
				return -1, false
			}
			spans = spans || (n > 0 && at != entry)
			entry = at
		}
		if spans {
			entry = -1
		}
		return entry, certain
	}
	// changed marks the entries whose pdfs a comparison left above the join
	// may floor or merge: it names an uncertain column, and any column it
	// names may end up in the merged joint.
	changed := make([]bool, len(jp.entries))
	var thresholds []int
	for i, c := range s.Where {
		if c.Kind != CondCmp {
			thresholds = append(thresholds, i)
			continue
		}
		var cols []string
		for _, o := range []Operand{c.Left, c.Right} {
			if o.IsCol {
				cols = append(cols, o.Col)
			}
		}
		e, certain := owner(cols...)
		if e >= 0 && certain {
			jp.entries[e].pushed = append(jp.entries[e].pushed, i)
			continue
		}
		jp.above = append(jp.above, i)
		for _, name := range cols {
			if e, _ := owner(name); e >= 0 && !certain {
				changed[e] = true
			}
		}
	}
	for _, i := range thresholds {
		if e, _ := owner(s.Where[i].ProbCols...); e >= 0 && !changed[e] {
			jp.entries[e].pushed = append(jp.entries[e].pushed, i)
		} else {
			jp.above = append(jp.above, i)
		}
	}
	sort.Ints(jp.above)
	return jp, nil
}

// addConjuncts wraps the tree with the WHERE conjuncts at the given
// positions: the comparisons in one Filter kernel, then a ProbFilter per
// probability threshold, each kind in the order at lists it.
func addConjuncts(pr *pipelineResult, root pipe.Operator, where []Cond, at []int) (pipe.Operator, error) {
	var atoms []core.Atom
	for _, i := range at {
		if c := where[i]; c.Kind == CondCmp {
			atoms = append(atoms, core.Cmp(toCoreOperand(c.Left), c.Op, toCoreOperand(c.Right)))
		}
	}
	if len(atoms) > 0 {
		sel, err := root.Header().PlanSelect(atoms...)
		if err != nil {
			return nil, err
		}
		pr.kernels = append(pr.kernels, sel)
		root = pipe.NewFilter(root, sel)
	}
	for _, i := range at {
		if c := where[i]; c.Kind != CondCmp {
			var err error
			if root, err = addProbFilter(pr, root, c); err != nil {
				return nil, err
			}
		}
	}
	return root, nil
}

// buildNaiveTree is the multi-table path: a left-deep join tree in FROM
// order, each entry a Scan under the conjuncts planJoin moved to it, each
// step an equi-join when equiJoinKeys finds a certain equality between the
// two sides and a cross product otherwise, then the conjuncts left above.
// Every table's columns are exposed as "<alias-or-name>.<column>".
func (db *DB) buildNaiveTree(s SelectStmt) (pipe.Operator, *pipelineResult, error) {
	if len(s.From) == 0 {
		return nil, nil, fmt.Errorf("query: empty FROM")
	}
	jp, err := db.planJoin(s)
	if err != nil {
		return nil, nil, err
	}
	pr := &pipelineResult{join: jp}
	for _, ref := range s.From {
		if db.indexes[ref.Name] != nil {
			pr.counters.PlannerFallbacks++
			break
		}
	}
	var root pipe.Operator
	for i, e := range jp.entries {
		next, err := addConjuncts(pr, pipe.NewScan(e.view), s.Where, e.pushed)
		if err != nil {
			return nil, nil, err
		}
		if i == 0 {
			root = next
			continue
		}
		hdr := root.Header()
		if l, r, ok := equiJoinKeys(s, hdr, next.Header()); ok {
			k, err := hdr.PlanEquiJoin(next.Header(), l, r)
			if err != nil {
				return nil, nil, err
			}
			root = pipe.NewEquiJoin(root, next, k)
		} else {
			k, err := hdr.PlanCross(next.Header())
			if err != nil {
				return nil, nil, err
			}
			root = pipe.NewCrossJoin(root, next, k)
		}
	}
	root, err = addConjuncts(pr, root, s.Where, jp.above)
	return root, pr, err
}

// addProbFilter wraps the tree with one probability-threshold conjunct,
// planned against the current header and recorded for report harvesting.
func addProbFilter(pr *pipelineResult, root pipe.Operator, c Cond) (pipe.Operator, error) {
	hdr := root.Header()
	var sel *core.ProbSelection
	switch c.Kind {
	case CondProb:
		sel = hdr.PlanProbSelect(c.ProbCols, c.Op, c.Threshold)
	case CondProbRange:
		sel = hdr.PlanRangeThreshold(c.ProbCols[0], c.Lo, c.Hi, c.Op, c.Threshold)
	default:
		return nil, fmt.Errorf("query: unsupported condition kind %d", c.Kind)
	}
	pr.kernels = append(pr.kernels, sel)
	return pipe.NewProbFilter(root, sel), nil
}

// addOrderStages appends ORDER BY / LIMIT / projection to the tree. ORDER
// BY with LIMIT becomes the bounded top-k heap; ORDER BY alone a full
// sort; LIMIT alone an early-terminating pass-through. Projection runs
// last, so the ORDER BY key may name a column the SELECT list drops.
func addOrderStages(root pipe.Operator, s SelectStmt) (pipe.Operator, error) {
	if s.OrderCol != "" {
		key, err := orderKey(root.Header(), s)
		if err != nil {
			return root, err
		}
		if s.Limit != nil && s.OrderProb {
			root = pipe.NewProbTopK(root, *s.Limit, []string{s.OrderCol}, s.OrderDesc)
		} else if s.Limit != nil {
			hdr := root.Header()
			root = pipe.NewColumnTopK(root, *s.Limit, hdr.CertainOffset(hdr.Schema().Index(s.OrderCol)), s.OrderDesc)
		} else {
			root = pipe.NewSort(root, key, s.OrderDesc)
		}
	} else if s.Limit != nil {
		root = pipe.NewLimit(root, *s.Limit)
	}
	if s.Star {
		return root, nil
	}
	return addProjection(root, s.Cols)
}

// addProjection wraps the tree with Π_cols, planned against its header.
func addProjection(root pipe.Operator, cols []string) (pipe.Operator, error) {
	k, err := root.Header().PlanProject(cols...)
	if err != nil {
		return root, err
	}
	return pipe.NewProject(root, k), nil
}

// orderKey builds the ORDER BY key extractor — a certain column, resolved
// to its certain-value offset here, or Pr(column), the classic most-probable-tuples
// ranking. The breakers call it once per arriving tuple and compare the
// keys (NULLs after all values in both directions, ties in arrival order),
// so ORDER BY PROB(col) computes each probability exactly once and fails the
// query on the first bad tuple.
func orderKey(t *core.Table, s SelectStmt) (func(*core.Tuple) (core.OrderKey, error), error) {
	if s.OrderProb {
		return pipe.ProbKey(t, []string{s.OrderCol}), nil
	}
	col, ok := t.Schema().Lookup(s.OrderCol)
	if !ok {
		return nil, fmt.Errorf("query: no column %q", s.OrderCol)
	}
	if col.Uncertain {
		return nil, fmt.Errorf("query: ORDER BY uncertain column %q needs PROB(...)", s.OrderCol)
	}
	return pipe.ColumnKey(t.CertainOffset(t.Schema().Index(s.OrderCol))), nil
}
