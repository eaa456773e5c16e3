package query

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"probdb/internal/core"
	"probdb/internal/dist"
	"probdb/internal/pipe"
	"probdb/internal/plan"
)

// DB is a catalog of probabilistic tables sharing one base-pdf registry,
// with a SQL-ish Exec interface. It is safe for concurrent sessions: DDL
// and DML statements take the catalog's write lock, EXPLAIN and the
// introspection statements run under the read lock, and a SELECT is planned
// under the read lock against frozen tables and runs with none
// (PrepareSelect), so readers never observe a half-applied mutation and a
// running SELECT never blocks a writer (the base-pdf registry below mints
// IDs atomically and needs no lock).
type DB struct {
	mu     sync.RWMutex
	reg    *core.Registry
	tables map[string]*core.Table

	// Planner state (see planner.go): ANALYZE statistics and index sets per
	// table, maintained under the same write lock as the DML that changes
	// them; forceScan disables index access paths for differential testing.
	stats     map[string]*plan.TableStats
	indexes   map[string]*plan.TableIndexes
	forceScan bool
}

// Open creates an empty database.
func Open() *DB {
	return OpenWith(core.NewRegistry())
}

// OpenWith creates an empty database over an existing base-pdf registry.
// The server uses it to build transaction overlays (cloned tables) over the
// authoritative registry.
func OpenWith(reg *core.Registry) *DB {
	return &DB{
		reg:     reg,
		tables:  map[string]*core.Table{},
		stats:   map[string]*plan.TableStats{},
		indexes: map[string]*plan.TableIndexes{},
	}
}

// Result is the outcome of one statement: a table for queries, a message
// and affected-row count for commands. Planner carries the query's access-
// path activity (zero-valued for statements the planner never sees).
type Result struct {
	Table    *core.Table
	Message  string
	Affected int
	Planner  plan.Counters
}

// String renders the result for a console.
func (r *Result) String() string {
	if r.Table != nil {
		return r.Table.Render()
	}
	return r.Message
}

// Table returns the named table.
func (db *DB) Table(name string) (*core.Table, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	return t, ok
}

// Attach installs an externally built table (for example one loaded from a
// heap file by internal/storage) into the catalog under its own name. The
// table's base pdfs must be registered in this database's Registry().
func (db *DB) Attach(t *core.Table) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.tables[t.Name]; dup {
		return fmt.Errorf("query: table %q already exists", t.Name)
	}
	db.tables[t.Name] = t
	return nil
}

// TableNames returns the catalog's table names, sorted.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Registry returns the database-wide base-pdf registry.
func (db *DB) Registry() *core.Registry { return db.reg }

// Exec parses and executes a single statement.
func (db *DB) Exec(sql string) (*Result, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return db.ExecStmt(stmt)
}

// ExecScript executes a semicolon-separated script, stopping at the first
// error, and returns the per-statement results so far.
func (db *DB) ExecScript(sql string) ([]*Result, error) {
	stmts, err := ParseScript(sql)
	if err != nil {
		return nil, err
	}
	results := make([]*Result, 0, len(stmts))
	for _, s := range stmts {
		r, err := db.ExecStmt(s)
		if err != nil {
			return results, err
		}
		results = append(results, r)
	}
	return results, nil
}

// ExecStmt executes one already-parsed statement. Execution does not modify
// stmt, so a caller may run the same statement on more than one catalog.
func (db *DB) ExecStmt(stmt Stmt) (*Result, error) {
	// A SELECT takes the read lock for its build step only. The other
	// read-only statements share the catalog under the read lock; anything
	// that mutates a table or the catalog map takes the write lock.
	switch stmt.(type) {
	case SelectStmt:
	case Explain, ShowTables, Describe:
		db.mu.RLock()
		defer db.mu.RUnlock()
	default:
		db.mu.Lock()
		defer db.mu.Unlock()
	}
	switch s := stmt.(type) {
	case CreateTable:
		return db.execCreate(s)
	case Insert:
		return db.execInsert(s)
	case SelectStmt:
		return db.execSelect(s)
	case Explain:
		return db.execExplain(s)
	case Delete:
		return db.execDelete(s)
	case Analyze:
		return db.execAnalyze(s)
	case CreateIndex:
		return db.execCreateIndex(s)
	case Drop:
		if _, ok := db.tables[s.Name]; !ok {
			return nil, fmt.Errorf("query: no table %q", s.Name)
		}
		delete(db.tables, s.Name)
		db.dropPlannerState(s.Name)
		return &Result{Message: fmt.Sprintf("dropped %s", s.Name)}, nil
	case ShowTables:
		names := make([]string, 0, len(db.tables))
		for n := range db.tables {
			names = append(names, n)
		}
		sort.Strings(names)
		return &Result{Message: strings.Join(names, "\n")}, nil
	case Describe:
		t, ok := db.tables[s.Name]
		if !ok {
			return nil, fmt.Errorf("query: no table %q", s.Name)
		}
		msg := fmt.Sprintf("%s %s\nΔ = %v", s.Name, t.Schema().String(), t.DepSets())
		if ph := t.PhantomAttrs(); len(ph) > 0 {
			msg += fmt.Sprintf("\nphantom: %v", ph)
		}
		if cols := db.indexes[s.Name].Cols(); len(cols) > 0 {
			names := make([]string, 0, len(cols))
			for c := range cols {
				names = append(names, c)
			}
			sort.Strings(names)
			parts := make([]string, len(names))
			for i, c := range names {
				parts[i] = fmt.Sprintf("%s(%s)", c, cols[c])
			}
			msg += "\nindexes: " + strings.Join(parts, ", ")
		}
		if ts := db.stats[s.Name]; ts != nil {
			msg += fmt.Sprintf("\nstats: analyzed at %d rows", ts.Rows)
		}
		return &Result{Message: msg}, nil
	case Begin, Commit, Rollback:
		return nil, fmt.Errorf("query: transactions require a server session (probql -connect); the embedded catalog is autocommit-only")
	default:
		return nil, fmt.Errorf("query: unsupported statement %T", stmt)
	}
}

func (db *DB) execCreate(s CreateTable) (*Result, error) {
	if _, dup := db.tables[s.Name]; dup {
		return nil, fmt.Errorf("query: table %q already exists", s.Name)
	}
	schema, err := core.NewSchema(s.Cols)
	if err != nil {
		return nil, err
	}
	t, err := core.NewTable(s.Name, schema, s.Deps, db.reg)
	if err != nil {
		return nil, err
	}
	db.tables[s.Name] = t
	return &Result{Message: fmt.Sprintf("created %s %s", s.Name, schema.String())}, nil
}

func (db *DB) execInsert(s Insert) (*Result, error) {
	t, ok := db.tables[s.Table]
	if !ok {
		return nil, fmt.Errorf("query: no table %q", s.Table)
	}
	before := t.Len()
	if err := t.InsertRows(len(s.Rows), insertRow(t, s)); err != nil {
		return nil, err
	}
	if err := db.noteInserted(s.Table, t, before); err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("inserted %d", len(s.Rows)), Affected: len(s.Rows)}, nil
}

// insertRow returns the builder of the statement's rows that
// core.Table.InsertRows calls, which checks and stores them all or none.
// Every row is built into the same Row.
func insertRow(t *core.Table, s Insert) func(int) (core.Row, error) {
	r := core.Row{Values: map[string]core.Value{}}
	return func(ri int) (core.Row, error) {
		clear(r.Values)
		r.PDFs = r.PDFs[:0]
		for i, target := range s.Targets {
			switch e := s.Rows[ri][i].(type) {
			case LitExpr:
				if target.Group {
					return core.Row{}, fmt.Errorf("query: dependency-set target %v needs a pdf, got literal", target.Cols)
				}
				col, found := t.Schema().Lookup(target.Cols[0])
				if !found {
					return core.Row{}, fmt.Errorf("query: no column %q in %s", target.Cols[0], s.Table)
				}
				if col.Uncertain {
					return core.Row{}, fmt.Errorf("query: column %q is uncertain; supply a pdf literal", col.Name)
				}
				r.Values[col.Name] = e.V
			case PDFExpr:
				r.PDFs = append(r.PDFs, core.PDF{Attrs: target.Cols, Dist: e.D})
			default:
				return core.Row{}, fmt.Errorf("query: unsupported value expression %T", s.Rows[ri][i])
			}
		}
		return r, nil
	}
}

// execExplain reports the chosen physical plan: the operator chain (the
// derived table name spells out the applied operators), the access path
// with estimated vs actual cardinality and index probe/prune counters, the
// dependency information after closure, phantom attributes, and the
// columnar-cache traffic. It drains the same filter tree a SELECT runs (the
// actual cardinality and the kernel counters require it) and its projection — the dependency/phantom shape is the projected
// view's, which drops the phantom sets no surviving row needs — but no
// ordering, no aggregation and no rendering, into a view of the rows.
func (db *DB) execExplain(s Explain) (*Result, error) {
	colHitsBefore, colMissesBefore := db.reg.ColCache().Counters()
	root, pr, err := db.buildFilterTree(s.Query)
	if err == nil && !s.Query.Star && s.Query.Agg == "" {
		if root, err = addProjection(root, s.Query.Cols); err != nil {
			root.Close() //nolint:errcheck
		}
	}
	if err != nil {
		return nil, err
	}
	shape, err := pipe.Drain(context.Background(), root)
	if err != nil {
		return nil, err
	}
	pr.harvestKernels()
	colHits, colMisses := db.reg.ColCache().Counters()
	footer := fmt.Sprintf("col cache: %d hits, %d misses", colHits-colHitsBefore, colMisses-colMissesBefore)

	msg := fmt.Sprintf("plan: %s\n%s", shape.Name, describePlan(pr))
	if s.Query.Agg != "" {
		label := s.Query.Agg + "(" + s.Query.AggCol + ")"
		if s.Query.Agg == "COUNT" && s.Query.AggCol == "" {
			label = "COUNT(*)"
		}
		msg += fmt.Sprintf("\naggregate: %s (not computed)", label)
	}
	msg += fmt.Sprintf("\nΔ = %v", shape.DepSets())
	if ph := shape.PhantomAttrs(); len(ph) > 0 {
		msg += fmt.Sprintf("\nphantom: %v", ph)
	}
	msg += fmt.Sprintf("\nrows: %d\n%s", shape.Len(), footer)
	return &Result{Message: msg, Planner: pr.counters}, nil
}

// execAggregate evaluates SUM/AVG/COUNT over the filtered table, returning
// the aggregate's distribution (§I: aggregates over uncertain data are
// themselves uncertain, approximated continuously when the exact support
// explodes).
func execAggregate(s SelectStmt, acc *core.Table) (*Result, error) {
	var d dist.Dist
	var err error
	label := s.Agg + "(" + s.AggCol + ")"
	switch s.Agg {
	case "SUM":
		d, err = acc.AggregateSum(s.AggCol, core.AggOptions{})
	case "AVG":
		d, err = acc.AggregateAvg(s.AggCol, core.AggOptions{})
	case "COUNT":
		d, err = acc.AggregateCount(core.AggOptions{})
		label = "COUNT(*)"
	default:
		err = fmt.Errorf("query: unsupported aggregate %q", s.Agg)
	}
	if err != nil {
		return nil, err
	}
	msg := fmt.Sprintf("%s = %v   (mean=%.6g, stddev=%.6g)", label, d, d.Mean(0), sqrt(d.Variance(0)))
	return &Result{Message: msg}, nil
}

func sqrt(v float64) float64 {
	if v < 0 {
		return 0
	}
	return math.Sqrt(v)
}

// resolveRef looks up one FROM entry as a frozen copy, with (for
// multi-table FROM lists) the "<alias-or-name>." column prefix.
func (db *DB) resolveRef(ref TableRef, qualify bool) (*core.Table, error) {
	t, ok := db.tables[ref.Name]
	if !ok {
		return nil, fmt.Errorf("query: no table %q", ref.Name)
	}
	t = t.Freeze()
	if !qualify {
		return t, nil
	}
	prefix := ref.Name
	if ref.Alias != "" {
		prefix = ref.Alias
	}
	return t.Prefixed(prefix + ".")
}

// equiJoinKeys finds the first certain = certain WHERE condition with one
// side in acc and the other in next — the upgrade of a cross product to a
// hash equi-join. Only schemas are consulted, so the tree builder decides
// from an operator header.
func equiJoinKeys(s SelectStmt, acc, next *core.Table) (left, right string, ok bool) {
	for _, c := range s.Where {
		if c.Kind != CondCmp || c.Op.String() != "=" || !c.Left.IsCol || !c.Right.IsCol {
			continue
		}
		l, r := c.Left.Col, c.Right.Col
		if certainCol(acc, l) && certainCol(next, r) {
			return l, r, true
		}
		if certainCol(acc, r) && certainCol(next, l) {
			return r, l, true
		}
	}
	return "", "", false
}

func certainCol(t *core.Table, name string) bool {
	col, ok := t.Schema().Lookup(name)
	return ok && !col.Uncertain
}

func toCoreOperand(o Operand) core.Operand {
	if o.IsCol {
		return core.Col(o.Col)
	}
	return core.Lit(o.Lit)
}

// execDelete is a SELECT whose output is removed. It builds the filter tree
// a single-table SELECT with the same WHERE plans — the access path, one
// Filter holding every comparison, the ProbFilters in the planner's residual
// order — and drains it under the write lock the caller holds. A selection
// that floors no pdf and a ProbFilter both pass their input tuples through,
// and Restrict maps index candidates to the base tuples in base order, so
// the drained rows are t's own rows in table order: what Table.Delete takes.
func (db *DB) execDelete(s Delete) (*Result, error) {
	t, ok := db.tables[s.Table]
	if !ok {
		return nil, fmt.Errorf("query: no table %q", s.Table)
	}
	// DELETE compares certain columns only (deletion is base-table
	// maintenance, not a PWS query), so no pdf is floored. A literal-only
	// conjunct, which a SELECT refuses to plan, folds here: a true one drops
	// out, a false one deletes nothing once every comparison is checked.
	sel := SelectStmt{From: []TableRef{{Name: s.Table}}}
	holds := true
	for _, c := range s.Where {
		if c.Kind == CondCmp {
			lit, ok, err := t.FoldCertain(core.Cmp(toCoreOperand(c.Left), c.Op, toCoreOperand(c.Right)))
			if err != nil {
				return nil, fmt.Errorf("query: DELETE FROM %s compares certain columns only (use PROB(...) on uncertain ones): %w", s.Table, err)
			}
			if lit {
				holds = holds && ok
				continue
			}
		}
		sel.Where = append(sel.Where, c)
	}
	if !holds {
		return &Result{Message: "deleted 0"}, nil
	}
	root, pr, err := db.buildPlannedTree(sel, t)
	if err != nil {
		return nil, err
	}
	var rows []*core.Tuple
	if err := pipe.Run(context.Background(), root, func(_ *core.Table, b []*core.Tuple) error {
		rows = append(rows, b...)
		return nil
	}); err != nil {
		return nil, err
	}
	pr.harvestKernels()
	n, err := t.Delete(rows)
	if err != nil {
		return nil, err
	}
	if err := db.noteDeleted(s.Table, rows); err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("deleted %d", n), Affected: n, Planner: pr.counters}, nil
}
