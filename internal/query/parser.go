package query

import (
	"fmt"
	"strconv"
	"strings"

	"probdb/internal/core"
	"probdb/internal/dist"
	"probdb/internal/region"
)

// Command is an engine-level command: a statement outside the query
// language that the server or router answers itself, before Parse.
type Command uint8

const (
	NotCommand    Command = iota
	CmdHealth             // HEALTH: the degradation report, answered even under overload
	CmdCheckpoint         // CHECKPOINT: flush the catalog and truncate the WAL
)

// ParseCommand recognises HEALTH and CHECKPOINT in any case, with
// surrounding space and an optional trailing semicolon.
func ParseCommand(sql string) Command {
	s := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(sql), ";"))
	switch {
	case strings.EqualFold(s, "HEALTH"):
		return CmdHealth
	case strings.EqualFold(s, "CHECKPOINT"):
		return CmdCheckpoint
	}
	return NotCommand
}

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks []token
	pos  int
}

// Parse parses one statement (a trailing semicolon is allowed).
func Parse(src string) (Stmt, error) {
	stmts, err := ParseScript(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("query: expected one statement, got %d", len(stmts))
	}
	return stmts[0], nil
}

// ParseScript parses a semicolon-separated sequence of statements.
func ParseScript(src string) ([]Stmt, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var stmts []Stmt
	for {
		for p.acceptSym(";") {
		}
		if p.peek().kind == tokEOF {
			return stmts, nil
		}
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
		if !p.acceptSym(";") && p.peek().kind != tokEOF {
			return nil, p.errf("expected ';' or end of input, got %v", p.peek())
		}
	}
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("query: %s (at offset %d)", fmt.Sprintf(format, args...), p.peek().pos)
}

// acceptKw consumes the next token if it is the given keyword
// (case-insensitive).
func (p *parser) acceptKw(kw string) bool {
	t := p.peek()
	if t.kind == tokIdent && strings.EqualFold(t.text, kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return p.errf("expected %s, got %v", strings.ToUpper(kw), p.peek())
	}
	return nil
}

func (p *parser) acceptSym(s string) bool {
	t := p.peek()
	if t.kind == tokSymbol && t.text == s {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectSym(s string) error {
	if !p.acceptSym(s) {
		return p.errf("expected %q, got %v", s, p.peek())
	}
	return nil
}

func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", p.errf("expected identifier, got %v", t)
	}
	p.pos++
	return t.text, nil
}

// number parses a possibly negated numeric literal.
func (p *parser) number() (float64, error) {
	neg := false
	if p.acceptSym("-") {
		neg = true
	} else if p.acceptSym("+") {
		neg = false
	}
	t := p.peek()
	if t.kind != tokNumber {
		return 0, p.errf("expected number, got %v", t)
	}
	p.pos++
	v, err := strconv.ParseFloat(t.text, 64)
	if err != nil {
		return 0, p.errf("bad number %q: %v", t.text, err)
	}
	if neg {
		v = -v
	}
	return v, nil
}

func (p *parser) statement() (Stmt, error) {
	switch {
	case p.acceptKw("CREATE"):
		if p.acceptKw("INDEX") {
			return p.createIndex()
		}
		return p.createTable()
	case p.acceptKw("ANALYZE"):
		st := Analyze{}
		if p.peek().kind == tokIdent {
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			st.Table = name
		}
		return st, nil
	case p.acceptKw("INSERT"):
		return p.insert()
	case p.acceptKw("SELECT"):
		return p.selectStmt()
	case p.acceptKw("EXPLAIN"):
		if err := p.expectKw("SELECT"); err != nil {
			return nil, err
		}
		sel, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		return Explain{Query: sel.(SelectStmt)}, nil
	case p.acceptKw("DELETE"):
		return p.deleteStmt()
	case p.acceptKw("DROP"):
		if err := p.expectKw("TABLE"); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return Drop{Name: name}, nil
	case p.acceptKw("SHOW"):
		if err := p.expectKw("TABLES"); err != nil {
			return nil, err
		}
		return ShowTables{}, nil
	case p.acceptKw("DESCRIBE"):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return Describe{Name: name}, nil
	case p.acceptKw("BEGIN"):
		p.acceptKw("TRANSACTION") // optional noise word
		return Begin{}, nil
	case p.acceptKw("START"):
		if err := p.expectKw("TRANSACTION"); err != nil {
			return nil, err
		}
		return Begin{}, nil
	case p.acceptKw("COMMIT"):
		return Commit{}, nil
	case p.acceptKw("ROLLBACK"):
		return Rollback{}, nil
	default:
		return nil, p.errf("expected a statement, got %v", p.peek())
	}
}

// createIndex parses CREATE INDEX [name] ON table (col). "INDEX" has been
// consumed.
func (p *parser) createIndex() (Stmt, error) {
	st := CreateIndex{}
	if !strings.EqualFold(p.peek().text, "ON") {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		st.Name = name
	}
	if err := p.expectKw("ON"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	st.Table = table
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	if st.Col, err = p.ident(); err != nil {
		return nil, err
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	if st.Name == "" {
		st.Name = table + "_" + st.Col + "_idx"
	}
	return st, nil
}

func (p *parser) createTable() (Stmt, error) {
	if err := p.expectKw("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	st := CreateTable{Name: name}
	for {
		if p.acceptKw("DEPENDENT") {
			if err := p.expectSym("("); err != nil {
				return nil, err
			}
			var group []string
			for {
				col, err := p.ident()
				if err != nil {
					return nil, err
				}
				group = append(group, col)
				if !p.acceptSym(",") {
					break
				}
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
			st.Deps = append(st.Deps, group)
		} else {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			ty, err := p.columnType()
			if err != nil {
				return nil, err
			}
			c := core.Column{Name: col, Type: ty}
			if p.acceptKw("UNCERTAIN") {
				c.Uncertain = true
			}
			st.Cols = append(st.Cols, c)
		}
		if p.acceptSym(",") {
			continue
		}
		break
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *parser) columnType() (core.AttrType, error) {
	t, err := p.ident()
	if err != nil {
		return 0, err
	}
	switch strings.ToUpper(t) {
	case "INT", "INTEGER", "BIGINT":
		return core.IntType, nil
	case "FLOAT", "REAL", "DOUBLE":
		return core.FloatType, nil
	case "TEXT", "VARCHAR", "STRING":
		return core.StringType, nil
	case "BOOL", "BOOLEAN":
		return core.BoolType, nil
	}
	return 0, p.errf("unknown type %q", t)
}

func (p *parser) insert() (Stmt, error) {
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := Insert{Table: name}
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	for {
		if p.acceptSym("(") {
			var group []string
			for {
				col, err := p.ident()
				if err != nil {
					return nil, err
				}
				group = append(group, col)
				if !p.acceptSym(",") {
					break
				}
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
			st.Targets = append(st.Targets, InsertTarget{Cols: group, Group: true})
		} else {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			st.Targets = append(st.Targets, InsertTarget{Cols: []string{col}})
		}
		if p.acceptSym(",") {
			continue
		}
		break
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	if err := p.expectKw("VALUES"); err != nil {
		return nil, err
	}
	for {
		start := p.peek().pos
		if err := p.expectSym("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.valueExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.acceptSym(",") {
				break
			}
		}
		end := p.peek().pos + 1
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		if len(row) != len(st.Targets) {
			return nil, p.errf("row has %d values, target list has %d", len(row), len(st.Targets))
		}
		st.Rows = append(st.Rows, row)
		st.Spans = append(st.Spans, [2]int{start, end})
		if !p.acceptSym(",") {
			break
		}
	}
	return st, nil
}

// valueExpr parses a literal or pdf constructor.
func (p *parser) valueExpr() (Expr, error) {
	t := p.peek()
	switch {
	case t.kind == tokString:
		p.pos++
		return LitExpr{V: core.Str(t.text)}, nil
	case t.kind == tokNumber || (t.kind == tokSymbol && (t.text == "-" || t.text == "+")):
		v, err := p.number()
		if err != nil {
			return nil, err
		}
		if v == float64(int64(v)) && !strings.ContainsAny(t.text, ".eE") {
			return LitExpr{V: core.Int(int64(v))}, nil
		}
		return LitExpr{V: core.Float(v)}, nil
	case t.kind == tokIdent:
		switch strings.ToUpper(t.text) {
		case "NULL":
			p.pos++
			return LitExpr{V: core.Null}, nil
		case "TRUE":
			p.pos++
			return LitExpr{V: core.Bool(true)}, nil
		case "FALSE":
			p.pos++
			return LitExpr{V: core.Bool(false)}, nil
		default:
			d, err := p.pdfLiteral()
			if err != nil {
				return nil, err
			}
			return PDFExpr{D: d}, nil
		}
	}
	return nil, p.errf("expected a value, got %v", t)
}

// pdfFamily is a symbolic pdf constructor: its number of arguments and the
// dist builder that checks them.
type pdfFamily struct {
	arity int
	build func(a []float64) (dist.Dist, error)
}

var (
	gaussianLit    = pdfFamily{2, func(a []float64) (dist.Dist, error) { return dist.BuildGaussianVar(a[0], a[1]) }}
	uniformLit     = pdfFamily{2, func(a []float64) (dist.Dist, error) { return dist.BuildUniform(a[0], a[1]) }}
	exponentialLit = pdfFamily{1, func(a []float64) (dist.Dist, error) { return dist.BuildExponential(a[0]) }}
	triangularLit  = pdfFamily{3, func(a []float64) (dist.Dist, error) { return dist.BuildTriangular(a[0], a[1], a[2]) }}
	bernoulliLit   = pdfFamily{1, func(a []float64) (dist.Dist, error) { return dist.BuildBernoulli(a[0]) }}
	binomialLit    = pdfFamily{2, func(a []float64) (dist.Dist, error) { return dist.BuildBinomial(a[0], a[1]) }}
	poissonLit     = pdfFamily{1, func(a []float64) (dist.Dist, error) { return dist.BuildPoisson(a[0]) }}
	geometricLit   = pdfFamily{1, func(a []float64) (dist.Dist, error) { return dist.BuildGeometric(a[0]) }}
)

// pdfFamilies maps each symbolic constructor name to its family. GAUSSIAN
// takes the paper's Gaus(mean, variance).
var pdfFamilies = map[string]pdfFamily{
	"GAUSSIAN": gaussianLit, "GAUS": gaussianLit, "NORMAL": gaussianLit,
	"UNIFORM": uniformLit, "UNIF": uniformLit,
	"EXPONENTIAL": exponentialLit, "EXP": exponentialLit,
	"TRIANGULAR": triangularLit, "TRI": triangularLit,
	"BERNOULLI": bernoulliLit, "BERN": bernoulliLit,
	"BINOMIAL": binomialLit, "BINOM": binomialLit,
	"POISSON":   poissonLit,
	"GEOMETRIC": geometricLit, "GEOM": geometricLit,
}

// pdfLiteral parses NAME(args) distribution constructors. Parameters go to
// the family's dist builder, whose *dist.ParamError is the refusal.
func (p *parser) pdfLiteral() (dist.Dist, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	upper := strings.ToUpper(name)
	if fam, ok := pdfFamilies[upper]; ok {
		args, err := p.numberArgs(fam.arity)
		if err != nil {
			return nil, err
		}
		return fam.build(args)
	}
	switch upper {
	case "DISCRETE":
		return p.discreteLiteral()
	case "MVN", "MULTIGAUSSIAN":
		return p.mvnLiteral()
	case "HISTOGRAM", "HIST":
		return p.histogramLiteral()
	}
	return nil, p.errf("unknown distribution %q", name)
}

// numberArgs parses exactly n comma-separated numbers and the closing paren.
func (p *parser) numberArgs(n int) ([]float64, error) {
	args := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			if err := p.expectSym(","); err != nil {
				return nil, err
			}
		}
		v, err := p.number()
		if err != nil {
			return nil, err
		}
		args = append(args, v)
	}
	return args, p.expectSym(")")
}

// discreteLiteral parses DISCRETE(v:p, ...) or DISCRETE((v1,v2):p, ...).
func (p *parser) discreteLiteral() (dist.Dist, error) {
	var pts []dist.Point
	dim := -1
	for {
		var xs []float64
		if p.acceptSym("(") {
			for {
				v, err := p.number()
				if err != nil {
					return nil, err
				}
				xs = append(xs, v)
				if !p.acceptSym(",") {
					break
				}
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
		} else {
			v, err := p.number()
			if err != nil {
				return nil, err
			}
			xs = []float64{v}
		}
		if err := p.expectSym(":"); err != nil {
			return nil, err
		}
		prob, err := p.number()
		if err != nil {
			return nil, err
		}
		if dim == -1 {
			dim = len(xs)
		} else if dim != len(xs) {
			return nil, p.errf("DISCRETE points mix %d and %d dimensions", dim, len(xs))
		}
		pts = append(pts, dist.Point{X: xs, P: prob})
		if !p.acceptSym(",") {
			break
		}
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	return dist.BuildDiscreteJoint(dim, pts)
}

// mvnLiteral parses MVN((mu1, mu2, ...):((c11, c12, ...), (c21, ...), ...)):
// a joint Gaussian with mean vector and covariance matrix, the natural
// literal for correlated dependency sets.
func (p *parser) mvnLiteral() (dist.Dist, error) {
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	var mean []float64
	for {
		v, err := p.number()
		if err != nil {
			return nil, err
		}
		mean = append(mean, v)
		if !p.acceptSym(",") {
			break
		}
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	if err := p.expectSym(":"); err != nil {
		return nil, err
	}
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	cov := make([][]float64, 0, len(mean))
	for {
		if err := p.expectSym("("); err != nil {
			return nil, err
		}
		var row []float64
		for {
			v, err := p.number()
			if err != nil {
				return nil, err
			}
			row = append(row, v)
			if !p.acceptSym(",") {
				break
			}
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		cov = append(cov, row)
		if !p.acceptSym(",") {
			break
		}
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	return dist.NewMultiGaussian(mean, cov)
}

// histogramLiteral parses HISTOGRAM((e0, e1, ...):(m1, ...)).
func (p *parser) histogramLiteral() (dist.Dist, error) {
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	var edges []float64
	for {
		v, err := p.number()
		if err != nil {
			return nil, err
		}
		edges = append(edges, v)
		if !p.acceptSym(",") {
			break
		}
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	if err := p.expectSym(":"); err != nil {
		return nil, err
	}
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	var masses []float64
	for {
		v, err := p.number()
		if err != nil {
			return nil, err
		}
		masses = append(masses, v)
		if !p.acceptSym(",") {
			break
		}
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	return dist.BuildHistogram(edges, masses)
}

func (p *parser) selectStmt() (Stmt, error) {
	st := SelectStmt{}
	if p.acceptSym("*") {
		st.Star = true
	} else if agg := p.peekAggregate(); agg != "" {
		p.pos += 2 // aggregate name and '('
		st.Agg = agg
		if agg == "COUNT" && p.acceptSym("*") {
			// COUNT(*)
		} else {
			col, err := p.qualifiedName()
			if err != nil {
				return nil, err
			}
			st.AggCol = col
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
	} else {
		for {
			col, err := p.qualifiedName()
			if err != nil {
				return nil, err
			}
			st.Cols = append(st.Cols, col)
			if !p.acceptSym(",") {
				break
			}
		}
	}
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	for {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		ref := TableRef{Name: name}
		if p.acceptKw("AS") {
			if ref.Alias, err = p.ident(); err != nil {
				return nil, err
			}
		} else if p.peek().kind == tokIdent && !isKeyword(p.peek().text) {
			ref.Alias, _ = p.ident()
		}
		st.From = append(st.From, ref)
		if !p.acceptSym(",") {
			break
		}
	}
	if p.acceptKw("WHERE") {
		conds, err := p.whereClause()
		if err != nil {
			return nil, err
		}
		st.Where = conds
	}
	if p.acceptKw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		if p.acceptKw("PROB") {
			if err := p.expectSym("("); err != nil {
				return nil, err
			}
			col, err := p.qualifiedName()
			if err != nil {
				return nil, err
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
			st.OrderProb = true
			st.OrderCol = col
		} else {
			col, err := p.qualifiedName()
			if err != nil {
				return nil, err
			}
			st.OrderCol = col
		}
		if p.acceptKw("DESC") {
			st.OrderDesc = true
		} else {
			p.acceptKw("ASC")
		}
	}
	if p.acceptKw("LIMIT") {
		v, err := p.number()
		if err != nil {
			return nil, err
		}
		if v < 0 || v != float64(int(v)) {
			return nil, p.errf("LIMIT must be a non-negative integer")
		}
		n := int(v)
		st.Limit = &n
	}
	return st, nil
}

// peekAggregate reports whether the next tokens open an aggregate call.
func (p *parser) peekAggregate() string {
	t := p.peek()
	if t.kind != tokIdent || p.toks[p.pos+1].kind != tokSymbol || p.toks[p.pos+1].text != "(" {
		return ""
	}
	switch strings.ToUpper(t.text) {
	case "SUM", "AVG", "COUNT":
		return strings.ToUpper(t.text)
	}
	return ""
}

func isKeyword(s string) bool {
	switch strings.ToUpper(s) {
	case "WHERE", "FROM", "AND", "VALUES", "AS", "SELECT", "JOIN", "ON",
		"ORDER", "BY", "LIMIT", "DESC", "ASC":
		return true
	}
	return false
}

func (p *parser) deleteStmt() (Stmt, error) {
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := Delete{Table: name}
	if p.acceptKw("WHERE") {
		conds, err := p.whereClause()
		if err != nil {
			return nil, err
		}
		st.Where = conds
	}
	return st, nil
}

// whereClause parses cond (AND cond)*.
func (p *parser) whereClause() ([]Cond, error) {
	var conds []Cond
	for {
		c, err := p.condition()
		if err != nil {
			return nil, err
		}
		conds = append(conds, c)
		if !p.acceptKw("AND") {
			break
		}
	}
	return conds, nil
}

func (p *parser) condition() (Cond, error) {
	t := p.peek()
	if t.kind == tokIdent && strings.EqualFold(t.text, "PROB") {
		return p.probCondition()
	}
	left, err := p.operand()
	if err != nil {
		return Cond{}, err
	}
	op, err := p.compareOp()
	if err != nil {
		return Cond{}, err
	}
	right, err := p.operand()
	if err != nil {
		return Cond{}, err
	}
	return Cond{Kind: CondCmp, Left: left, Op: op, Right: right}, nil
}

// probCondition parses PROB(col [, col...]) op num and
// PROB(col IN [lo, hi]) op num.
func (p *parser) probCondition() (Cond, error) {
	p.pos++ // PROB
	if err := p.expectSym("("); err != nil {
		return Cond{}, err
	}
	col, err := p.qualifiedName()
	if err != nil {
		return Cond{}, err
	}
	c := Cond{ProbCols: []string{col}}
	if p.acceptKw("IN") {
		c.Kind = CondProbRange
		if err := p.expectSym("["); err != nil {
			return Cond{}, err
		}
		if c.Lo, err = p.number(); err != nil {
			return Cond{}, err
		}
		if err := p.expectSym(","); err != nil {
			return Cond{}, err
		}
		if c.Hi, err = p.number(); err != nil {
			return Cond{}, err
		}
		if err := p.expectSym("]"); err != nil {
			return Cond{}, err
		}
	} else {
		c.Kind = CondProb
		for p.acceptSym(",") {
			more, err := p.qualifiedName()
			if err != nil {
				return Cond{}, err
			}
			c.ProbCols = append(c.ProbCols, more)
		}
	}
	if err := p.expectSym(")"); err != nil {
		return Cond{}, err
	}
	op, err := p.compareOp()
	if err != nil {
		return Cond{}, err
	}
	c.Op = op
	if c.Threshold, err = p.number(); err != nil {
		return Cond{}, err
	}
	return c, nil
}

func (p *parser) compareOp() (region.Op, error) {
	t := p.peek()
	if t.kind != tokSymbol {
		return 0, p.errf("expected comparison operator, got %v", t)
	}
	var op region.Op
	switch t.text {
	case "<":
		op = region.LT
	case "<=":
		op = region.LE
	case ">":
		op = region.GT
	case ">=":
		op = region.GE
	case "=":
		op = region.EQ
	case "<>", "!=":
		op = region.NE
	default:
		return 0, p.errf("expected comparison operator, got %v", t)
	}
	p.pos++
	return op, nil
}

// operand parses a column reference or literal.
func (p *parser) operand() (Operand, error) {
	t := p.peek()
	switch {
	case t.kind == tokIdent:
		if strings.EqualFold(t.text, "NULL") {
			p.pos++
			return Operand{Lit: core.Null}, nil
		}
		if strings.EqualFold(t.text, "TRUE") || strings.EqualFold(t.text, "FALSE") {
			p.pos++
			return Operand{Lit: core.Bool(strings.EqualFold(t.text, "TRUE"))}, nil
		}
		name, err := p.qualifiedName()
		if err != nil {
			return Operand{}, err
		}
		return Operand{Col: name, IsCol: true}, nil
	case t.kind == tokString:
		p.pos++
		return Operand{Lit: core.Str(t.text)}, nil
	case t.kind == tokNumber || (t.kind == tokSymbol && (t.text == "-" || t.text == "+")):
		raw := t.text
		v, err := p.number()
		if err != nil {
			return Operand{}, err
		}
		if v == float64(int64(v)) && !strings.ContainsAny(raw, ".eE") {
			return Operand{Lit: core.Int(int64(v))}, nil
		}
		return Operand{Lit: core.Float(v)}, nil
	}
	return Operand{}, p.errf("expected column or literal, got %v", t)
}

// qualifiedName parses IDENT or IDENT.IDENT into a single dotted name.
func (p *parser) qualifiedName() (string, error) {
	a, err := p.ident()
	if err != nil {
		return "", err
	}
	if p.acceptSym(".") {
		b, err := p.ident()
		if err != nil {
			return "", err
		}
		return a + "." + b, nil
	}
	return a, nil
}
