package query

import (
	"probdb/internal/core"
	"probdb/internal/dist"
	"probdb/internal/region"
)

// Stmt is a parsed statement.
type Stmt interface{ stmt() }

// CreateTable is CREATE TABLE name (col TYPE [UNCERTAIN], ...,
// DEPENDENT(a, b), ...).
type CreateTable struct {
	Name string
	Cols []core.Column
	Deps [][]string
}

// Insert is INSERT INTO name (targets) VALUES (...), (...). A target is
// either one column or a parenthesized group naming a dependency set that
// receives a joint pdf.
type Insert struct {
	Table   string
	Targets []InsertTarget
	Rows    [][]Expr
	// Spans holds each VALUES row's byte span [start, end) — its
	// parenthesized text — in the source Parse was given. The cluster
	// router splits an INSERT by partition key by forwarding each row's
	// original text: pdf literals carry constructed distributions with no
	// canonical SQL form (Render refuses them).
	Spans [][2]int
}

// InsertTarget is one column or dependency-set group in an INSERT target
// list.
type InsertTarget struct {
	Cols  []string
	Group bool
}

// SelectStmt is SELECT cols FROM refs [WHERE conds]. When Agg is set the
// statement is an aggregate query — SELECT SUM(col) / AVG(col) / COUNT(*) —
// whose result is a distribution (the probabilistic aggregates of §I).
type SelectStmt struct {
	Star   bool
	Cols   []string
	Agg    string // "", "SUM", "AVG", "COUNT"
	AggCol string // aggregated column ("" for COUNT(*))
	From   []TableRef
	Where  []Cond
	// ORDER BY: by a certain column, or by Pr(column) when OrderProb is
	// set — the top-k-most-probable-tuples ranking of probabilistic DBs.
	OrderCol  string
	OrderProb bool
	OrderDesc bool
	// LIMIT caps the result size (applied after ordering).
	Limit *int
}

// TableRef is one FROM entry, optionally aliased.
type TableRef struct {
	Name  string
	Alias string
}

// Delete is DELETE FROM name [WHERE conds].
type Delete struct {
	Table string
	Where []Cond
}

// Explain is EXPLAIN SELECT ...: it executes the query and reports the
// operator chain, dependency structure and result cardinality instead of
// the rows.
type Explain struct{ Query SelectStmt }

// Drop is DROP TABLE name.
type Drop struct{ Name string }

// Analyze is ANALYZE [table]: collect planner statistics for one table or,
// with no table, for every table in the catalog.
type Analyze struct{ Table string }

// CreateIndex is CREATE INDEX [name] ON table (col). The index kind follows
// the column: a probabilistic threshold index for uncertain columns, a
// btree for certain ones.
type CreateIndex struct {
	Name  string
	Table string
	Col   string
}

// ShowTables is SHOW TABLES.
type ShowTables struct{}

// Describe is DESCRIBE name.
type Describe struct{ Name string }

// Begin is BEGIN [TRANSACTION] / START TRANSACTION: opens an explicit
// transaction on the session. Transactions are a server-session concept —
// the bare query.DB rejects the statement.
type Begin struct{}

// Commit is COMMIT: atomically publish the session's buffered writes.
type Commit struct{}

// Rollback is ROLLBACK: discard the session's buffered writes.
type Rollback struct{}

func (CreateTable) stmt() {}
func (CreateIndex) stmt() {}
func (Analyze) stmt()     {}
func (Explain) stmt()     {}
func (Insert) stmt()      {}
func (SelectStmt) stmt()  {}
func (Delete) stmt()      {}
func (Drop) stmt()        {}
func (ShowTables) stmt()  {}
func (Describe) stmt()    {}
func (Begin) stmt()       {}
func (Commit) stmt()      {}
func (Rollback) stmt()    {}

// Expr is an INSERT value: a literal or a pdf constructor.
type Expr interface{ expr() }

// LitExpr is a certain literal value.
type LitExpr struct{ V core.Value }

// PDFExpr is a distribution literal, already built by the parser.
type PDFExpr struct{ D dist.Dist }

func (LitExpr) expr() {}
func (PDFExpr) expr() {}

// CondKind discriminates WHERE conditions.
type CondKind int

// Condition kinds: ordinary comparisons (PWS selections), probability
// thresholds over attributes (§III-E), and probability thresholds over a
// range event.
const (
	CondCmp CondKind = iota
	CondProb
	CondProbRange
)

// Cond is one conjunct of a WHERE clause.
type Cond struct {
	Kind CondKind
	// CondCmp:
	Left, Right Operand
	Op          region.Op
	// CondProb / CondProbRange:
	ProbCols  []string
	Lo, Hi    float64 // CondProbRange only
	Threshold float64
}

// Operand is a column reference (possibly alias-qualified) or a literal.
type Operand struct {
	Col   string // "" when literal
	Lit   core.Value
	IsCol bool
}
