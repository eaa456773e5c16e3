package core

import (
	"fmt"

	"probdb/internal/region"
)

// Operand is one side of a comparison atom: either a column reference or a
// literal value.
type Operand struct {
	attr  string
	lit   Value
	isCol bool
}

// Col references the named column.
func Col(name string) Operand { return Operand{attr: name, isCol: true} }

// Lit wraps a literal value.
func Lit(v Value) Operand { return Operand{lit: v} }

// LitF wraps a float literal.
func LitF(f float64) Operand { return Operand{lit: Float(f)} }

// LitI wraps an integer literal.
func LitI(i int64) Operand { return Operand{lit: Int(i)} }

// LitS wraps a string literal.
func LitS(s string) Operand { return Operand{lit: Str(s)} }

func (o Operand) String() string {
	if o.isCol {
		return o.attr
	}
	return o.lit.Render()
}

// Atom is one comparison predicate: left op right. Selections take
// conjunctions of atoms; because floors commute (§III-A), the atoms may be
// applied in any order.
type Atom struct {
	Left  Operand
	Op    region.Op
	Right Operand
}

// Cmp builds an atom.
func Cmp(left Operand, op region.Op, right Operand) Atom {
	return Atom{Left: left, Op: op, Right: right}
}

func (a Atom) String() string {
	return fmt.Sprintf("%v %v %v", a.Left, a.Op, a.Right)
}

// atomClass classifies an atom against a table for planning.
type atomClass int

const (
	atomCertain        atomClass = iota // no uncertain column involved
	atomUncertainConst                  // one uncertain column vs a constant
	atomCross                           // uncertain column vs column (any kind)
)

// classified is an analyzed atom: operand columns resolved against the
// table, normalized so that an uncertain-vs-constant comparison has the
// column on the left.
type classified struct {
	atom  Atom
	class atomClass
	// For atomUncertainConst: the uncertain column name and the kept region.
	colName string
	keep    region.Set
	// For atomCross: both column names (left, right) as written.
	leftCol, rightCol string
}

// classify resolves an atom against the table. It returns an error for
// unknown columns, comparisons of uncertain columns with non-numeric
// literals, or literal-vs-literal atoms.
func (t *Table) classify(a Atom) (classified, error) {
	c := classified{atom: a}
	leftCol, leftUncertain, err := t.operandInfo(a.Left)
	if err != nil {
		return c, err
	}
	rightCol, rightUncertain, err := t.operandInfo(a.Right)
	if err != nil {
		return c, err
	}
	switch {
	case a.Left.isCol && a.Right.isCol:
		if leftUncertain || rightUncertain {
			c.class = atomCross
			c.leftCol, c.rightCol = leftCol, rightCol
		} else {
			c.class = atomCertain
		}
	case a.Left.isCol && leftUncertain:
		f, ok := a.Right.lit.AsFloat()
		if !ok {
			return c, fmt.Errorf("core: uncertain column %q compared with non-numeric literal %s",
				leftCol, a.Right.lit.Render())
		}
		c.class = atomUncertainConst
		c.colName = leftCol
		c.keep = region.Compare(a.Op, f)
	case a.Right.isCol && rightUncertain:
		f, ok := a.Left.lit.AsFloat()
		if !ok {
			return c, fmt.Errorf("core: uncertain column %q compared with non-numeric literal %s",
				rightCol, a.Left.lit.Render())
		}
		c.class = atomUncertainConst
		c.colName = rightCol
		c.keep = region.Compare(a.Op.Flip(), f)
	case a.Left.isCol || a.Right.isCol:
		c.class = atomCertain
	default:
		return c, fmt.Errorf("core: predicate %v compares two literals", a)
	}
	return c, nil
}

// operandInfo resolves a column operand, returning its name and whether it
// is uncertain. Literal operands return ("", false, nil).
func (t *Table) operandInfo(o Operand) (string, bool, error) {
	if !o.isCol {
		return "", false, nil
	}
	col, ok := t.schema.Lookup(o.attr)
	if !ok {
		return "", false, fmt.Errorf("core: unknown column %q", o.attr)
	}
	return o.attr, col.Uncertain, nil
}

// certainCmp is a comparison over certain values compiled against a table's
// schema: each side is a column's certain-value offset (CertainOffset), or
// (col < 0) a literal. Evaluating it indexes tup.certain and compares in
// place — no name lookup and no Value copy per row.
type certainCmp struct {
	op         region.Op
	lcol, rcol int
	llit, rlit Value
	// lanes marks a comparison whose sides are numeric columns or numeric
	// literals, at least one a column: a batch with a slot evaluates it over the
	// columns' value lanes (pending.go).
	lanes bool
}

// compileCertain resolves the atom's column operands, which the caller has
// checked exist and are certain, to their offsets.
func (t *Table) compileCertain(a Atom) certainCmp {
	c := certainCmp{op: a.Op, lcol: -1, rcol: -1, llit: a.Left.lit, rlit: a.Right.lit}
	if a.Left.isCol {
		c.lcol = t.CertainOffset(t.schema.Index(a.Left.attr))
	}
	if a.Right.isCol {
		c.rcol = t.CertainOffset(t.schema.Index(a.Right.attr))
	}
	c.lanes = (c.lcol >= 0 || c.rcol >= 0) && t.numericOperand(a.Left) && t.numericOperand(a.Right)
	return c
}

// numericOperand reports whether o is a numeric column or a numeric literal.
func (t *Table) numericOperand(o Operand) bool {
	if o.isCol {
		col, _ := t.schema.Lookup(o.attr)
		return col.Type.Numeric()
	}
	_, ok := o.lit.AsFloat()
	return ok
}

// FoldCertain checks that every column a names is a certain column of t —
// the comparisons DELETE accepts. An atom that names no column is a
// constant, which a Selection refuses to plan: lit reports one and holds is
// its value under the compiled atoms' NULL, mixed-kind and NaN semantics.
func (t *Table) FoldCertain(a Atom) (lit, holds bool, err error) {
	for _, o := range []Operand{a.Left, a.Right} {
		if _, uncertain, err := t.operandInfo(o); err != nil {
			return false, false, err
		} else if uncertain {
			return false, false, fmt.Errorf("core: column %q is uncertain", o.attr)
		}
	}
	if a.Left.isCol || a.Right.isCol {
		return false, false, nil
	}
	c := t.compileCertain(a)
	return true, c.eval(nil), nil
}

// eval evaluates the comparison on a tuple. NULL comparisons are false (SQL
// semantics collapsed to boolean), = is Value.Equal, and the orderings are
// Value.Compare against zero, false when the kinds are incomparable.
func (c *certainCmp) eval(tup *Tuple) bool {
	lv, rv := &c.llit, &c.rlit
	if c.lcol >= 0 {
		lv = &tup.certain[c.lcol]
	}
	if c.rcol >= 0 {
		rv = &tup.certain[c.rcol]
	}
	// Two numbers, the common case, compare as floats. <= and >= are
	// Compare's three-way result against zero, which a NaN leaves at zero,
	// hence the negated forms.
	if lf, ok := lv.AsFloat(); ok {
		if rf, ok := rv.AsFloat(); ok {
			switch c.op {
			case region.EQ:
				return lf == rf
			case region.NE:
				return lf != rf
			case region.LT:
				return lf < rf
			case region.LE:
				return !(lf > rf)
			case region.GT:
				return lf > rf
			case region.GE:
				return !(lf < rf)
			}
		}
	}
	switch c.op {
	case region.EQ:
		return lv.Equal(*rv)
	case region.NE:
		if lv.IsNull() || rv.IsNull() {
			return false
		}
		return !lv.Equal(*rv)
	default:
		cmp, ok := lv.Compare(*rv)
		if !ok {
			return false
		}
		return c.op.Eval(float64(cmp), 0)
	}
}
