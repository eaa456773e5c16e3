package colpdf

import "probdb/internal/region"

// Lane is the columnar form of one certain column over a batch of tuples:
// each row's value as a float (core.Value.AsFloat) and a mask of the rows
// that are numeric at all. NULL, string and boolean rows are outside the
// mask and keep the scalar per-tuple path. A base table keeps it with the
// batch it encodes, beside the pdf columns' Blocks.
type Lane struct {
	Vals []float64 // valid where Num
	Num  []bool
	// AllNum reports that every row is numeric, so no row needs the
	// scalar path.
	AllNum bool
}

// NewLane wraps a batch's values and numeric mask, which it takes over.
func NewLane(vals []float64, num []bool) *Lane {
	l := &Lane{Vals: vals, Num: num, AllNum: true}
	for _, ok := range num {
		l.AllNum = l.AllNum && ok
	}
	return l
}

// MemCost estimates the bytes the lane holds, as Block.MemCost does.
func (l *Lane) MemCost() int64 { return 64 + 9*int64(len(l.Vals)) }

// KeepConst narrows keep to the rows whose value v satisfies "v op c", for
// every row in the numeric mask; the other rows keep their decision for the
// caller's scalar path. The comparisons are the certain filter's: <= and >=
// are the negations of > and <, so a NaN satisfies them, and != as well.
func (l *Lane) KeepConst(op region.Op, c float64, keep []bool) {
	v, num := l.Vals, l.Num
	keep = keep[:len(v)]
	num = num[:len(v)]
	switch op {
	case region.EQ:
		for i, x := range v {
			keep[i] = keep[i] && (!num[i] || x == c)
		}
	case region.NE:
		for i, x := range v {
			keep[i] = keep[i] && (!num[i] || x != c)
		}
	case region.LT:
		for i, x := range v {
			keep[i] = keep[i] && (!num[i] || x < c)
		}
	case region.LE:
		for i, x := range v {
			keep[i] = keep[i] && (!num[i] || !(x > c))
		}
	case region.GT:
		for i, x := range v {
			keep[i] = keep[i] && (!num[i] || x > c)
		}
	case region.GE:
		for i, x := range v {
			keep[i] = keep[i] && (!num[i] || !(x < c))
		}
	}
}

// KeepLane narrows keep to the rows where "l op r" holds, for every row
// numeric in both lanes; the other rows keep their decision for the
// caller's scalar path.
func (l *Lane) KeepLane(op region.Op, r *Lane, keep []bool) {
	for i, x := range l.Vals {
		if keep[i] && l.Num[i] && r.Num[i] {
			keep[i] = holds(op, x, r.Vals[i])
		}
	}
}

// holds is "a op b" under the certain filter's comparisons.
func holds(op region.Op, a, b float64) bool {
	switch op {
	case region.EQ:
		return a == b
	case region.NE:
		return a != b
	case region.LT:
		return a < b
	case region.LE:
		return !(a > b)
	case region.GT:
		return a > b
	}
	return !(a < b) // GE
}
