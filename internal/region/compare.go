package region

import "fmt"

// Op enumerates the comparison operators that compile to 1-D regions.
type Op int

// Comparison operators.
const (
	LT Op = iota // strictly less than
	LE           // less than or equal
	GT           // strictly greater than
	GE           // greater than or equal
	EQ           // equal
	NE           // not equal
)

// String returns the SQL spelling of the operator.
func (op Op) String() string {
	switch op {
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	case EQ:
		return "="
	case NE:
		return "<>"
	}
	return fmt.Sprintf("Op(%d)", int(op))
}

// Flip returns the operator with its operands swapped (e.g. a < b becomes
// b > a).
func (op Op) Flip() Op {
	switch op {
	case LT:
		return GT
	case LE:
		return GE
	case GT:
		return LT
	case GE:
		return LE
	default: // EQ, NE are symmetric
		return op
	}
}

// Eval reports whether "a op b" holds.
func (op Op) Eval(a, b float64) bool {
	switch op {
	case LT:
		return a < b
	case LE:
		return a <= b
	case GT:
		return a > b
	case GE:
		return a >= b
	case EQ:
		return a == b
	case NE:
		return a != b
	}
	panic("region: unknown Op")
}

// Compare returns the set of x satisfying "x op c". This is the compilation
// step from a selection predicate with a constant right-hand side to the
// region a pdf is floored against.
func Compare(op Op, c float64) Set {
	switch op {
	case LT:
		return NewSet(Below(c, true))
	case LE:
		return NewSet(Below(c, false))
	case GT:
		return NewSet(Above(c, true))
	case GE:
		return NewSet(Above(c, false))
	case EQ:
		return NewSet(Point(c))
	case NE:
		return NewSet(Point(c)).Complement()
	}
	panic("region: unknown Op")
}

// Box is an axis-aligned N-dimensional box (one interval per dimension).
type Box []Interval

// Contains reports whether the point x (len(x) == len(b)) lies in the box.
func (b Box) Contains(x []float64) bool {
	if len(x) != len(b) {
		panic("region: Box.Contains dimension mismatch")
	}
	for i, iv := range b {
		if !iv.Contains(x[i]) {
			return false
		}
	}
	return true
}

// Empty reports whether any dimension of the box is empty.
func (b Box) Empty() bool {
	for _, iv := range b {
		if iv.Empty() {
			return true
		}
	}
	return false
}

// Intersect returns the per-dimension intersection of two boxes of equal
// dimensionality.
func (b Box) Intersect(o Box) Box {
	if len(b) != len(o) {
		panic("region: Box.Intersect dimension mismatch")
	}
	out := make(Box, len(b))
	for i := range b {
		out[i] = b[i].Intersect(o[i])
	}
	return out
}
