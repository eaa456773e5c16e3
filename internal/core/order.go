package core

import "sort"

// Sorted returns a table with the tuples reordered by the comparison
// function (stable). Ordering is presentation-level: pdfs, dependency
// information and histories are untouched.
func (t *Table) Sorted(less func(tb *Table, a, b *Tuple) bool) *Table {
	out := t.shallowDerived(t.Name)
	out.tuples = append([]*Tuple(nil), t.tuples...)
	sort.SliceStable(out.tuples, func(i, j int) bool { return less(t, out.tuples[i], out.tuples[j]) })
	return out
}

// Head returns a table with the first n tuples (all of them when n exceeds
// the table size).
func (t *Table) Head(n int) *Table {
	if n < 0 {
		n = 0
	}
	if n > len(t.tuples) {
		n = len(t.tuples)
	}
	out := t.shallowDerived(t.Name)
	out.tuples = append([]*Tuple(nil), t.tuples[:n]...)
	return out
}

// OrderKey is one tuple's ORDER BY key, extracted once so that sorting and
// the top-k heap compare keys rather than re-reading tuples: whether the key
// is NULL, a number, or a string. INT and FLOAT values fold to one number
// kind (they compare as floats), a BOOL to 0 or 1 of its own kind.
type OrderKey struct {
	kind ValueKind // IntValue stands for both numeric kinds
	f    float64
	s    string
}

// FloatKey is the key of a computed number, such as ORDER BY PROB(col).
func FloatKey(f float64) OrderKey { return OrderKey{kind: IntValue, f: f} }

// Number returns the key's number and whether it is one (INT, FLOAT or a
// computed number).
func (k OrderKey) Number() (float64, bool) { return k.f, k.kind == IntValue }

// OrderKey returns the ordering key of the certain value at offset col
// (Table.CertainOffset of the column).
func (tup *Tuple) OrderKey(col int) OrderKey {
	v := &tup.certain[col]
	if f, ok := v.AsFloat(); ok {
		return FloatKey(f)
	}
	switch v.Kind {
	case StringValue:
		return OrderKey{kind: StringValue, s: v.S}
	case BoolValue:
		if v.B {
			return OrderKey{kind: BoolValue, f: 1}
		}
		return OrderKey{kind: BoolValue}
	}
	return OrderKey{}
}

// Before reports whether a sorts strictly ahead of b, ascending or
// descending: NULL keys after every value in both directions, values in
// Value.Compare order, keys of incomparable kinds tied. Ties are the
// caller's to break (stable sort, arrival order).
func (a OrderKey) Before(b OrderKey, desc bool) bool {
	if a.kind == NullValue || b.kind == NullValue {
		return a.kind != NullValue && b.kind == NullValue
	}
	if a.kind != b.kind {
		return false
	}
	if desc {
		a, b = b, a
	}
	if a.kind == StringValue {
		return a.s < b.s
	}
	return a.f < b.f
}
