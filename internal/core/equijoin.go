package core

// EquiJoin returns t ⋈ o restricted to pairs whose certain key columns are
// equal, then applies the remaining atoms as a selection. Semantically it
// equals Join(o, Cmp(Col(leftKey), EQ, Col(rightKey)), atoms...) — a cross
// product followed by selection (§III-D) — but pairs tuples through a hash
// table on the key instead of materializing the full cross product, which
// is what makes join benchmarks over thousands of tuples feasible.
func (t *Table) EquiJoin(o *Table, leftKey, rightKey string, atoms ...Atom) (*Table, error) {
	k, err := t.PlanEquiJoin(o, leftKey, rightKey)
	if err != nil {
		return nil, err
	}
	k.Build(o.tuples)
	out := k.Out()
	for _, a := range t.tuples {
		out.tuples = k.AppendMatches(out.tuples, a)
	}
	if len(atoms) == 0 {
		return out, nil
	}
	sel, err := out.Select(atoms...)
	if err != nil {
		return nil, err
	}
	sel.Name = out.Name
	return sel, nil
}
