package query

import (
	"testing"

	"probdb/internal/core"
)

// referenceSelect is the oracle of the byte-equality differentials: one
// SELECT evaluated with nothing but the whole-table library methods of
// internal/core, each materializing its full output before the next runs —
// full scan (no planner, no index), all comparison conjuncts in one Select
// in written order, then the probability conjuncts in written order, then
// Sorted / Head / Project. The operator tree that serves statements must
// render byte-identically to it, derived-table name and phantom list
// included.
func referenceSelect(t *testing.T, db *DB, sql string) *Result {
	t.Helper()
	stmt, err := Parse(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	s := stmt.(SelectStmt)
	db.mu.RLock()
	defer db.mu.RUnlock()
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("reference %s: %v", sql, err)
		}
	}
	acc, err := db.resolveRef(s.From[0], len(s.From) > 1)
	check(err)
	for _, ref := range s.From[1:] {
		next, err := db.resolveRef(ref, true)
		check(err)
		if l, r, ok := equiJoinKeys(s, acc, next); ok {
			acc, err = acc.EquiJoin(next, l, r)
		} else {
			acc, err = acc.CrossProduct(next)
		}
		check(err)
	}
	var atoms []core.Atom
	for _, c := range s.Where {
		if c.Kind == CondCmp {
			atoms = append(atoms, core.Cmp(toCoreOperand(c.Left), c.Op, toCoreOperand(c.Right)))
		}
	}
	if len(atoms) > 0 {
		acc, err = acc.Select(atoms...)
		check(err)
	}
	for _, c := range s.Where {
		switch c.Kind {
		case CondProb:
			acc, err = acc.SelectWhereProb(c.ProbCols, c.Op, c.Threshold)
		case CondProbRange:
			acc, err = acc.SelectRangeThreshold(c.ProbCols[0], c.Lo, c.Hi, c.Op, c.Threshold)
		}
		check(err)
	}
	if s.Agg != "" {
		r, err := execAggregate(s, acc)
		check(err)
		return r
	}
	if s.OrderCol != "" {
		key, err := orderKey(acc, s)
		check(err)
		for _, tup := range acc.Tuples() {
			_, err := key(tup)
			check(err)
		}
		acc = acc.Sorted(func(_ *core.Table, a, b *core.Tuple) bool {
			ka, _ := key(a)
			kb, _ := key(b)
			return ka.Before(kb, s.OrderDesc)
		})
	}
	if s.Limit != nil {
		acc = acc.Head(*s.Limit)
	}
	if !s.Star {
		acc, err = acc.Project(s.Cols...)
		check(err)
	}
	return &Result{Table: acc, Affected: acc.Len()}
}
