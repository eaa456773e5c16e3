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
	"probdb/internal/exec"
	"probdb/internal/pipe"
	"probdb/internal/plan"
)

// DB is a catalog of probabilistic tables sharing one base-pdf registry,
// with a SQL-ish Exec interface. It is safe for concurrent sessions: DDL
// and DML statements take the catalog's write lock, while SELECT, EXPLAIN
// and the introspection statements run under the read lock, so concurrent
// readers proceed in parallel and never observe a half-applied mutation
// (the base-pdf registry below mints IDs atomically and needs no lock).
type DB struct {
	mu     sync.RWMutex
	reg    *core.Registry
	tables map[string]*core.Table
	par    int // degree of parallelism for operators (0 = one worker per CPU)

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
// The server uses it to build MVCC snapshot catalogs (frozen tables) and
// transaction overlays (cloned tables), both over the authoritative
// registry.
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
// heap file by internal/store) into the catalog under its own name. The
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

// SetParallelism fixes the degree of parallelism used by per-tuple operator
// loops (Select, Join, threshold selections): 0 means one worker per logical
// CPU, 1 forces sequential execution. Results are byte-identical at every
// setting; the knob trades cores for latency only.
func (db *DB) SetParallelism(n int) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.par = n
}

// Parallelism reports the configured degree of parallelism (0 = auto).
func (db *DB) Parallelism() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.par
}

// Exec parses and executes a single statement.
func (db *DB) Exec(sql string) (*Result, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return db.execStmt(stmt)
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
		r, err := db.execStmt(s)
		if err != nil {
			return results, err
		}
		results = append(results, r)
	}
	return results, nil
}

func (db *DB) execStmt(stmt Stmt) (*Result, error) {
	// Read-only statements share the catalog under the read lock; anything
	// that mutates a table or the catalog map takes the write lock.
	switch stmt.(type) {
	case SelectStmt, Explain, ShowTables, Describe:
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
// dependency information after closure, phantom attributes, the degree of
// parallelism, and the columnar-cache traffic. It drains the same filter
// tree a SELECT runs (the actual cardinality and the kernel counters require
// it) and its projection — the dependency/phantom shape is the projected
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
	footer := fmt.Sprintf("parallelism: %d\ncol cache: %d hits, %d misses",
		exec.Resolve(db.par), colHits-colHitsBefore, colMisses-colMissesBefore)

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

// resolveRef looks up one FROM entry, applying the per-query parallelism
// view and (for multi-table FROM lists) the "<alias-or-name>." column
// prefix. The result is a view for the length of the statement: it shares
// the catalog table's tuples.
func (db *DB) resolveRef(ref TableRef, qualify bool) (*core.Table, error) {
	t, ok := db.tables[ref.Name]
	if !ok {
		return nil, fmt.Errorf("query: no table %q", ref.Name)
	}
	t = t.WithParallelism(db.par)
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

func (db *DB) execDelete(s Delete) (*Result, error) {
	t, ok := db.tables[s.Table]
	if !ok {
		return nil, fmt.Errorf("query: no table %q", s.Table)
	}
	// DELETE predicates may touch certain columns and probability
	// thresholds, but not floor pdfs (deletion is base-table maintenance,
	// not a PWS query). The certain comparisons compile to one predicate —
	// the compiled atoms a SELECT's filter evaluates — and the probability
	// conjuncts evaluate per tuple behind it.
	var atoms []core.Atom
	var probConds []Cond
	for _, c := range s.Where {
		if c.Kind == CondCmp {
			atoms = append(atoms, core.Cmp(toCoreOperand(c.Left), c.Op, toCoreOperand(c.Right)))
		} else {
			probConds = append(probConds, c)
		}
	}
	certain, err := t.CertainFilter(atoms...)
	if err != nil {
		return nil, fmt.Errorf("query: DELETE FROM %s compares certain columns only (use PROB(...) on uncertain ones): %w", s.Table, err)
	}
	var evalErr error
	var removed []*core.Tuple
	n := t.Delete(func(tb *core.Table, tup *core.Tuple) bool {
		if !certain(tup) {
			return false
		}
		for _, c := range probConds {
			ok, err := evalDeleteProb(tb, tup, c)
			if err != nil {
				evalErr = err
				return false
			}
			if !ok {
				return false
			}
		}
		removed = append(removed, tup)
		return true
	})
	// The tuples removed ahead of a failing one stay removed, so the indexes
	// forget them on the error path too.
	if err := db.noteDeleted(s.Table, removed); evalErr == nil {
		evalErr = err
	}
	if evalErr != nil {
		return nil, evalErr
	}
	return &Result{Message: fmt.Sprintf("deleted %d", n), Affected: n}, nil
}

func evalDeleteProb(t *core.Table, tup *core.Tuple, c Cond) (bool, error) {
	switch c.Kind {
	case CondProb:
		p, err := t.Prob(tup, c.ProbCols...)
		if err != nil {
			return false, err
		}
		return c.Op.Eval(p, c.Threshold), nil
	case CondProbRange:
		p, err := t.ProbInRange(tup, c.ProbCols[0], c.Lo, c.Hi)
		if err != nil {
			return false, err
		}
		return c.Op.Eval(p, c.Threshold), nil
	}
	return false, fmt.Errorf("query: unsupported DELETE condition")
}
