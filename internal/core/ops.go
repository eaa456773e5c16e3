package core

import (
	"fmt"
	"sort"

	"probdb/internal/dist"
	"probdb/internal/region"
)

// withDist derives a new node from n with a different distribution. The
// ancestors carry over (selection copies histories, §III-C); the node is no
// longer pristine.
func withDist(n *PDFNode, d dist.Dist) *PDFNode {
	return &PDFNode{Dist: d, Anc: n.Anc, vars: n.vars}
}

// Select evaluates the conjunction of atoms over the table and returns the
// resulting table (§III-C). Predicates over certain attributes filter
// tuples outright (case 1). Predicates comparing an uncertain attribute
// with a constant floor the attribute's pdf (case 2a, symbolically where
// possible). Predicates spanning attributes merge the involved dependency
// sets per the closure Ω (Definition 4), promoting certain attributes into
// the joint via the identity pdf, and floor the joint over the predicate
// region (case 2b). Tuples whose pdfs are completely floored are removed.
//
// Planning and per-tuple evaluation live in the Selection kernel
// (kernels.go); this method runs the kernel over the whole table.
func (t *Table) Select(atoms ...Atom) (*Table, error) {
	sel, err := t.PlanSelect(atoms...)
	if err != nil {
		return nil, err
	}
	return t.RunSelection(sel)
}

// RunSelection applies a compiled selection over the whole table. Callers
// that need the kernel afterwards (EXPLAIN harvests its Report) plan and
// run separately; Select is the plan-and-run convenience.
func (t *Table) RunSelection(sel *Selection) (*Table, error) {
	var err error
	out := sel.Out()

	// Evaluation into index-aligned slots, then in-order assembly of the
	// survivors: the morsel loops inside (pdf floors and builds, per-tuple
	// Eval) fill disjoint slots, so the output is the same tuples, floats
	// and order on any number of processors. The pending-mass path walks
	// encoding-aligned batches so it reads the table's batch slots; the
	// scalar reference walks tuples.
	slots := make([]*Tuple, len(t.tuples))
	if sel.MassesFirst() {
		var p Pending
		err = forColBatches(len(t.tuples), func(from, to int) error {
			return sel.evalBatchAt(t.tuples[from:to], t.slotAt(from, to-from), &p, slots[from:to])
		})
	} else {
		err = sel.evalTuples(t.tuples, slots)
	}
	if err != nil {
		return nil, err
	}
	for _, nt := range slots {
		if nt == nil {
			continue
		}
		out.Append(nt)
	}
	return out, nil
}

// locate returns the dependency-set index and dimension of the attribute id
// in the (derived) table. It panics on certain/unknown attributes — callers
// establish membership during planning.
func (t *Table) locate(id AttrID) (dep, dim int) {
	for di, d := range t.deps {
		if k := d.dimOf(id); k >= 0 {
			return di, k
		}
	}
	panic(fmt.Sprintf("core: attribute %d not in any dependency set", id))
}

// mergeGroup is one connected component of the closure Ω that actually
// requires merging.
type mergeGroup struct {
	setIdxs  []int
	promoted []int
}

// mergeGroups computes the closure Ω (Definition 4) over the dependency
// sets linked by cross atoms and returns the components that need merging:
// those touching more than one dependency set or promoting a certain column.
func (t *Table) mergeGroups(cls []classified) ([]mergeGroup, error) {
	parent := map[string]string{}
	var find func(string) string
	find = func(x string) string {
		p, ok := parent[x]
		if !ok || p == x {
			parent[x] = x
			return x
		}
		r := find(p)
		parent[x] = r
		return r
	}
	union := func(a, b string) { parent[find(b)] = find(a) }

	item := func(colName string) (string, error) {
		col, ok := t.schema.Lookup(colName)
		if !ok {
			return "", fmt.Errorf("core: unknown column %q", colName)
		}
		if col.Uncertain {
			di := t.depOf(t.idOf(colName))
			return fmt.Sprintf("d%d", di), nil
		}
		return fmt.Sprintf("c%d", t.schema.Index(colName)), nil
	}

	touched := map[string]bool{}
	for _, c := range cls {
		if c.class != atomCross {
			continue
		}
		li, err := item(c.leftCol)
		if err != nil {
			return nil, err
		}
		ri, err := item(c.rightCol)
		if err != nil {
			return nil, err
		}
		union(li, ri)
		touched[li], touched[ri] = true, true
	}

	comp := map[string]*mergeGroup{}
	var roots []string
	for it := range touched {
		r := find(it)
		g, ok := comp[r]
		if !ok {
			g = &mergeGroup{}
			comp[r] = g
			roots = append(roots, r)
		}
		var idx int
		fmt.Sscanf(it[1:], "%d", &idx)
		if it[0] == 'd' {
			g.setIdxs = append(g.setIdxs, idx)
		} else {
			g.promoted = append(g.promoted, idx)
		}
	}
	sort.Strings(roots)
	var out []mergeGroup
	for _, r := range roots {
		g := comp[r]
		sort.Ints(g.setIdxs)
		sort.Ints(g.promoted)
		if len(g.setIdxs)+len(g.promoted) > 1 || len(g.promoted) > 0 {
			out = append(out, *g)
		}
	}
	return out, nil
}

// Project returns Π_names(t) (§III-B). With history tracking on, dependency
// sets overlapping the projection keep their full joint pdfs — the
// projected-out attributes become phantom attributes so no floors or
// correlations are lost — and invisible sets with partial pdfs anywhere are
// retained wholly as phantoms (they carry tuple-existence probability).
// With tracking off, overlapping sets are eagerly marginalized onto the
// visible attributes and everything else is dropped (the incorrect baseline
// of Fig. 6). Duplicate elimination is not performed, per the paper.
//
// The per-tuple work is the Projection kernel (kernels.go); the one decision
// that needs every tuple — which invisible sets are partial anywhere — is
// View's, as for every table that holds all of its rows.
func (t *Table) Project(names ...string) (*Table, error) {
	p, err := t.PlanProject(names...)
	if err != nil {
		return nil, err
	}
	return p.out.View(p.out.Name, p.AppendBatch(make([]*Tuple, 0, len(t.tuples)), t.tuples)), nil
}

// CrossProduct returns t × o (§III-D). Both tables must share a registry
// and have disjoint column names; rename first if needed. A table cannot be
// crossed with a derivation of itself whose tuples share attribute
// identities (self-joins of dependent copies are outside the paper's model,
// which does not define duplicate semantics).
func (t *Table) CrossProduct(o *Table) (*Table, error) {
	k, err := t.PlanCross(o)
	if err != nil {
		return nil, err
	}
	out := k.Out()
	// Pairs come out in the nested-loop order: left tuples in order, each
	// paired with the right tuples in order.
	if len(t.tuples) > 0 && len(o.tuples) > 0 {
		pairs := make([]*Tuple, 0, len(t.tuples)*len(o.tuples))
		for _, a := range t.tuples {
			for _, b := range o.tuples {
				pairs = append(pairs, k.Pair(a, b))
			}
		}
		out.tuples = pairs
	}
	return out, nil
}

// Join returns t ⋈_atoms o: a cross product followed by selection (§III-D).
func (t *Table) Join(o *Table, atoms ...Atom) (*Table, error) {
	x, err := t.CrossProduct(o)
	if err != nil {
		return nil, err
	}
	j, err := x.Select(atoms...)
	if err != nil {
		return nil, err
	}
	j.Name = fmt.Sprintf("%s⋈%s", t.Name, o.Name)
	return j, nil
}

// Renamed returns a table with columns renamed per mapping (old name → new
// name). Attribute identities are preserved, so histories keep working
// across the rename. It is a read-only view sharing the receiver's tuples,
// registry and batch encodings, like Freeze.
func (t *Table) Renamed(mapping map[string]string) (*Table, error) {
	cols := append([]Column(nil), t.schema.Columns()...)
	for i, c := range cols {
		if nn, ok := mapping[c.Name]; ok {
			cols[i].Name = nn
		}
	}
	newSchema, err := NewSchema(cols)
	if err != nil {
		return nil, err
	}
	out := *t.Freeze()
	out.schema = newSchema
	out.deps = make([]*depSet, len(t.deps))
	for i, d := range t.deps {
		nd := d.clone()
		for j, n := range nd.names {
			if nn, ok := mapping[n]; ok {
				nd.names[j] = nn
			}
		}
		out.deps[i] = nd
	}
	return &out, nil
}

// Prefixed returns the table with every column renamed to prefix+name —
// the usual way to disambiguate before a join. Like Renamed, it is a view.
func (t *Table) Prefixed(prefix string) (*Table, error) {
	m := map[string]string{}
	for _, c := range t.schema.Columns() {
		m[c.Name] = prefix + c.Name
	}
	return t.Renamed(m)
}

// Prob returns the probability that the tuple has a value for the given
// attribute set: the product of the masses of the dependency sets the
// attributes touch (certain attributes contribute 1). This is the Pr(A) of
// the paper's §III-E operations on probability values.
func (t *Table) Prob(tup *Tuple, attrs ...string) (float64, error) {
	seen := map[int]bool{}
	p := 1.0
	for _, a := range attrs {
		col, ok := t.schema.Lookup(a)
		if !ok {
			return 0, fmt.Errorf("core: unknown column %q", a)
		}
		if !col.Uncertain {
			continue
		}
		di := t.depOf(t.idOf(a))
		if !seen[di] {
			seen[di] = true
			p *= tup.nodes[di].Dist.Mass()
		}
	}
	return p, nil
}

// SelectWhereProb implements the threshold queries of §III-E: it keeps the
// tuples whose Pr(attrs) satisfies "Pr op p". As an operation on
// probability values it does not floor any pdf; histories are copied over
// unchanged (semantics of case 1).
func (t *Table) SelectWhereProb(attrs []string, op region.Op, p float64) (*Table, error) {
	return t.RunProbSelection(t.PlanProbSelect(attrs, op, p))
}

// RunProbSelection applies a compiled probability-threshold selection over
// the whole table: keep/drop decisions batch by batch, in-order assembly.
func (t *Table) RunProbSelection(sel *ProbSelection) (*Table, error) {
	out := sel.Out()
	keep := make([]bool, len(t.tuples))
	var err error
	if VectorizedKernels() && sel.resolveErr == nil {
		vals := make([]float64, len(t.tuples))
		err = forColBatches(len(t.tuples), func(from, to int) error {
			return sel.keepBatchAt(t.tuples[from:to], t.slotAt(from, to-from), keep[from:to], vals[from:to])
		})
	} else {
		err = sel.keepTuples(t.tuples, keep)
	}
	if err != nil {
		return nil, err
	}
	for i, tup := range t.tuples {
		if keep[i] {
			out.Append(tup)
		}
	}
	return out, nil
}

// ProbInRange returns the probability that the uncertain attribute falls in
// [lo, hi] for the tuple — the probabilistic threshold range query
// primitive the paper's experiments evaluate.
func (t *Table) ProbInRange(tup *Tuple, attr string, lo, hi float64) (float64, error) {
	d, err := t.DistOf(tup, attr)
	if err != nil {
		return 0, err
	}
	return dist.MassInterval(d, lo, hi), nil
}

// SelectRangeThreshold keeps tuples with Pr(attr ∈ [lo, hi]) op p — a
// probability-value selection over a derived range probability (§III-E).
// No pdfs are floored.
func (t *Table) SelectRangeThreshold(attr string, lo, hi float64, op region.Op, p float64) (*Table, error) {
	return t.RunProbSelection(t.PlanRangeThreshold(attr, lo, hi, op, p))
}

// Delete removes rows, which must be tuples of t in table order — what a
// filter tree over t (or over index candidates Restrict mapped back to t's
// tuples) yields — and returns how many it removed. It is all or nothing:
// when some row is not t's or is out of order, Delete returns an error and
// leaves the table untouched. The base pdfs of removed tuples survive as
// phantoms for as long as a derived tuple still reaches them (§II-C); the
// collector frees the rest.
func (t *Table) Delete(rows []*Tuple) (int, error) {
	if len(rows) == 0 {
		return 0, nil
	}
	// Compact into a fresh slice rather than in place: frozen snapshots
	// (Freeze) share the old backing array and must keep seeing the
	// pre-delete tuple pointers, and a rejected call must leave the table
	// as it was. The capacity stays the old length, so the INSERT that
	// follows a small delete appends without regrowing.
	kept := make([]*Tuple, 0, len(t.tuples))
	first, j := -1, 0 // the first removed row; the next row to remove
	for i, tup := range t.tuples {
		if j < len(rows) && rows[j] == tup {
			if first < 0 {
				first = i
			}
			j++
			continue
		}
		kept = append(kept, tup)
	}
	if j < len(rows) {
		return 0, fmt.Errorf("core: delete from %s: row %d of %d is not a row of the table in table order", t.Name, j, len(rows))
	}
	t.tuples = kept
	if t.enc != nil {
		// Rows from the first removed one's batch on have moved: those
		// batches get fresh slots, the ones before keep their encodings.
		b := first / colBatchSize
		enc := append(make([]encSlot, 0, (len(kept)+colBatchSize-1)/colBatchSize), t.enc[:b]...)
		for len(enc)*colBatchSize < len(kept) {
			enc = append(enc, t.newSlot())
		}
		t.enc = enc
	}
	return len(rows), nil
}
