package core

import (
	"fmt"
	"slices"

	"probdb/internal/colpdf"
	"probdb/internal/dist"
	"probdb/internal/exec"
	"probdb/internal/region"
)

// This file is the compiled (planned) form of the relational operators: each
// Plan* constructor runs an operator's per-table analysis once — schema and
// dependency-set work, atom classification, the closure Ω — and returns a
// kernel holding the derived table's shape plus a pure per-tuple function.
// internal/pipe's streaming operators — the one executor behind every
// statement — call these kernels one batch at a time; the Table methods in
// ops.go run the same kernels over a whole table for core's library API and
// the test-only reference evaluator. Same planning state, same per-tuple
// floats, same order, so the two drivers render byte-identically.
//
// Planning only reads Σ, Δ, ids and the registry — never the tuples — so a
// kernel planned against an empty derived table evaluates tuples of any
// table sharing that shape. Projection too: a streamed projection keeps
// every invisible dependency set as phantoms, and a table that materializes
// the rows drops the ones no row needed (View), which is the only part of
// §III-B that reads tuples.
//
// A produced tuple's nodes point at the base pdfs they derive from (history
// Λ), so a tuple keeps what it needs alive however long it is held.

// Selection is a compiled Select: the derived table shape and the planned
// atoms (certain filters, rectangular floors, closure merges, joint floors).
type Selection struct {
	in  *Table
	out *Table

	cls          []classified
	certain      []certainCmp // the atomCertain members of cls, compiled
	laneFilters  bool         // some member of certain reads value lanes
	promotedCols map[int]bool
	plans        []*mergePlan
	oldToNew     []int
	planDep      []int
	floors       []floorOp
	crosses      []crossOp
	// depFloors[dep] lists the floors on output set dep (indexes into floors,
	// in written order), and floorDeps the sets that have any.
	depFloors [][]int
	floorDeps []int

	// cursor tracks where the next streamed batch is expected to start in
	// the input table, so EvalBatch can find its batch slot (slotOf).
	// Touched only by the (single-threaded) batch driver.
	cursor int
	stats  kernelStats
}

type floorOp struct {
	dep  int
	dim  int
	keep region.Set
}

type crossOp struct {
	dep        int
	ldim, rdim int
	op         region.Op
}

// PlanSelect compiles a conjunction of atoms against the table (§III-C):
// atom classification, the closure Ω over dependency sets linked by cross
// atoms, merged-set planning, and the floor operations located in the
// derived structure. The returned kernel's Out table is empty; Eval maps
// input tuples to output tuples.
func (t *Table) PlanSelect(atoms ...Atom) (*Selection, error) {
	cls := make([]classified, len(atoms))
	var certain []certainCmp
	for i, a := range atoms {
		c, err := t.classify(a)
		if err != nil {
			return nil, err
		}
		cls[i] = c
		if c.class == atomCertain {
			certain = append(certain, t.compileCertain(a))
		}
	}

	groups, err := t.mergeGroups(cls)
	if err != nil {
		return nil, err
	}

	// Build the derived table structure: surviving dependency sets plus one
	// merged set per group, and a schema where promoted certain columns
	// become uncertain.
	merged := map[int]bool{}       // old dep index -> part of a merge
	promotedCols := map[int]bool{} // visible column index -> promoted
	plans := make([]*mergePlan, len(groups))
	for gi, g := range groups {
		for _, si := range g.setIdxs {
			merged[si] = true
		}
		for _, ci := range g.promoted {
			promotedCols[ci] = true
		}
		plan, err := t.planMerge(g.setIdxs, g.promoted)
		if err != nil {
			return nil, err
		}
		plans[gi] = plan
	}

	cols := append([]Column(nil), t.schema.Columns()...)
	for ci := range promotedCols {
		cols[ci].Uncertain = true
	}
	newSchema, err := NewSchema(cols)
	if err != nil {
		return nil, err
	}

	out := &Table{
		Name:         fmt.Sprintf("σ(%s)", t.Name),
		schema:       newSchema,
		ids:          t.ids,
		cert:         t.cert,
		reg:          t.reg,
		trackHistory: t.trackHistory,
	}
	oldToNew := make([]int, len(t.deps))
	for si, d := range t.deps {
		if merged[si] {
			oldToNew[si] = -1
			continue
		}
		oldToNew[si] = len(out.deps)
		out.deps = append(out.deps, d)
	}
	planDep := make([]int, len(plans))
	for gi, plan := range plans {
		planDep[gi] = len(out.deps)
		out.deps = append(out.deps, plan.merged)
	}

	// Locate every pdf-level atom in the new structure once.
	var floors []floorOp
	var crosses []crossOp
	for _, c := range cls {
		switch c.class {
		case atomUncertainConst:
			dep, dim := out.locate(t.idOf(c.colName))
			floors = append(floors, floorOp{dep: dep, dim: dim, keep: c.keep})
		case atomCross:
			ldep, ldim := out.locate(t.idOf(c.leftCol))
			rdep, rdim := out.locate(t.idOf(c.rightCol))
			if ldep != rdep {
				return nil, fmt.Errorf("core: internal: closure failed to merge %q and %q", c.leftCol, c.rightCol)
			}
			crosses = append(crosses, crossOp{dep: ldep, ldim: ldim, rdim: rdim, op: c.atom.Op})
		}
	}
	depFloors := make([][]int, len(out.deps))
	var floorDeps []int
	for fi, f := range floors {
		if len(depFloors[f.dep]) == 0 {
			floorDeps = append(floorDeps, f.dep)
		}
		depFloors[f.dep] = append(depFloors[f.dep], fi)
	}
	laneFilters := false
	for _, c := range certain {
		laneFilters = laneFilters || c.lanes
	}
	return &Selection{
		in: t, out: out,
		cls: cls, certain: certain, laneFilters: laneFilters, promotedCols: promotedCols, plans: plans,
		oldToNew: oldToNew, planDep: planDep, floors: floors, crosses: crosses,
		depFloors: depFloors, floorDeps: floorDeps,
	}, nil
}

// Out returns the (empty) derived table the selection produces tuples for.
func (s *Selection) Out() *Table { return s.out }

// Eval evaluates one tuple against the planned atoms: filter, merge, floor,
// and the final zero-mass check. It returns nil (no error) when the tuple is
// filtered, and the input tuple itself when the selection is pass-through
// (tuples are immutable once inserted, so derived tables may share them with
// their base table, as threshold selection always has). Everything it
// touches is either read-only planning state or the tuple's own nodes, so
// tuples evaluate independently on worker goroutines.
func (s *Selection) Eval(tup *Tuple) (*Tuple, error) {
	t := s.in
	// Case 1: certain predicates filter outright.
	for i := range s.certain {
		if !s.certain[i].eval(tup) {
			return nil, nil
		}
	}
	if s.filtersOnly() && len(s.floors) == 0 {
		for _, n := range tup.nodes {
			if n.Dist.Mass() <= 0 {
				return nil, nil
			}
		}
		return tup, nil
	}
	// A NULL in a certain column about to be promoted into a joint can
	// satisfy no predicate: the tuple is filtered, matching SQL's
	// three-valued logic collapsed to false.
	for ci := range s.promotedCols {
		if _, numeric := tup.certain[t.CertainOffset(ci)].AsFloat(); !numeric {
			return nil, nil
		}
	}
	nodes := make([]*PDFNode, len(s.out.deps))
	for si := range t.deps {
		if s.oldToNew[si] >= 0 {
			nodes[s.oldToNew[si]] = tup.nodes[si]
		}
	}
	for gi, plan := range s.plans {
		n, err := t.mergeTupleNodes(plan, tup)
		if err != nil {
			return nil, err
		}
		nodes[s.planDep[gi]] = n
	}
	// Case 2a: rectangular floors.
	for _, f := range s.floors {
		n := nodes[f.dep]
		nodes[f.dep] = withDist(n, n.Dist.Floor(f.dim, f.keep))
	}
	// Case 2b: comparison floors over the merged joint.
	for _, c := range s.crosses {
		n := nodes[c.dep]
		nodes[c.dep] = withDist(n, dist.FloorCompare(n.Dist, c.ldim, c.rdim, c.op))
	}
	// Remove tuples whose pdfs were completely floored.
	for _, n := range nodes {
		if n.Dist.Mass() <= 0 {
			return nil, nil
		}
	}
	// Tuples are immutable, so the survivor shares the input's certain
	// values unless a promotion moves one of them into a joint pdf.
	certain := tup.certain
	if len(s.promotedCols) > 0 {
		certain = append([]Value(nil), tup.certain...)
		for ci := range s.promotedCols {
			certain[t.CertainOffset(ci)] = Null
		}
	}
	nt := makeTuple(certain, nodes)
	return &nt, nil
}

// Report returns the kernel's evaluation summary for EXPLAIN and stats.
func (s *Selection) Report() KernelReport { return s.stats.report(s.out.Name) }

// filtersOnly reports whether the selection is certain filters and floors
// only — no merge plans (hence no promotions) and no cross atoms — so the
// output dependency sets are the input's, and a batch can be evaluated to
// pending masses before any tuple is built (pending.go).
func (s *Selection) filtersOnly() bool {
	return len(s.plans) == 0 && len(s.crosses) == 0
}

// MassesFirst reports whether EvalBatch evaluates batches to pending masses
// and builds only the survivors, so that a consumer reading only masses can
// take them from EvalPending instead. Otherwise (merges, cross atoms, or the
// scalar reference forced by SetVectorizedKernels(false)) every tuple goes
// through Eval.
func (s *Selection) MassesFirst() bool { return VectorizedKernels() && s.filtersOnly() }

// EvalBatch evaluates one streamed batch, writing the produced tuple (or
// nil for a filtered one) into slots[i] for in[i]. p is the caller's
// scratch, reused across batches.
func (s *Selection) EvalBatch(in []*Tuple, p *Pending, slots []*Tuple) error {
	return s.evalBatchAt(in, s.in.slotOf(&s.cursor, in), p, slots)
}

// evalBatchAt is the batch body shared by EvalBatch and the whole-table
// driver RunSelection, which passes the batch's slot explicitly (nil: no
// slot, encode scratch): pending masses, then the survivors built, or Eval
// per tuple when the masses cannot come first.
func (s *Selection) evalBatchAt(in []*Tuple, slot encSlot, p *Pending, slots []*Tuple) error {
	if len(in) == 0 {
		return nil
	}
	if !s.MassesFirst() {
		return s.evalTuples(in, slots)
	}
	if err := s.evalPendingAt(in, slot, p); err != nil {
		return err
	}
	return s.build(in, p, slots)
}

// evalTuples runs Eval over every tuple of in into slots[i] — the path of a
// selection that is not MassesFirst, such as a join's cross-attribute floor.
// Each row builds its floored or merged pdfs, the work a second core pays
// for, so the loop runs in morsels.
func (s *Selection) evalTuples(in []*Tuple, slots []*Tuple) error {
	s.stats.scalar.Add(uint64(len(in)))
	return exec.For(len(in), func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			nt, err := s.Eval(in[i])
			if err != nil {
				return err
			}
			slots[i] = nt
		}
		return nil
	})
}

// probKind distinguishes the two probability-value selections: a tuple
// existence-mass threshold (Pr(attrs) op p) and a range-probability
// threshold (Pr(attr ∈ [lo, hi]) op p).
type probKind uint8

const (
	probMass probKind = iota
	probRange
)

// ProbSelection is a compiled probability-threshold selection (§III-E): a
// pure per-tuple keep/drop decision over probability values — no pdf is
// floored, histories are copied over unchanged. The plan carries the
// resolved dependency-set targets so KeepBatch can evaluate whole batches
// through the columnar kernels; Keep remains the scalar reference.
type ProbSelection struct {
	in   *Table
	out  *Table
	op   region.Op
	p    float64
	kind probKind

	// probMass: the Pr(attrs) argument list, and the distinct dependency
	// sets it touches in first-occurrence order — the exact multiplication
	// order the scalar Prob uses.
	attrs []string
	deps  []int

	// probRange: the target column and its location, and the tail bound
	// (colpdf.ThresholdZ of p) that decides Gaussian rows without a CDF.
	attr   string
	dep    int
	dim    int
	lo, hi float64
	z      float64

	// resolveErr records a plan-time resolution failure (unknown or certain
	// column). The scalar path reproduces the identical per-tuple error, so
	// batches route there instead of vectorizing.
	resolveErr error

	// cursor tracks where the next streamed batch is expected to start in
	// the input table. Touched only by the (single-threaded) batch driver.
	cursor int
	stats  kernelStats
}

// PlanProbSelect compiles "keep tuples whose Pr(attrs) op p".
func (t *Table) PlanProbSelect(attrs []string, op region.Op, p float64) *ProbSelection {
	ps := &ProbSelection{
		in:    t,
		out:   t.shallowDerived(fmt.Sprintf("σPr(%s)", t.Name)),
		op:    op,
		p:     p,
		kind:  probMass,
		attrs: append([]string(nil), attrs...),
	}
	ps.deps, ps.resolveErr = t.ProbDeps(attrs...)
	return ps
}

// ProbDeps resolves Pr(attrs) against the table: the distinct dependency
// sets of its uncertain columns in first-occurrence order, the order
// Table.Prob multiplies their masses in (certain columns contribute 1). It
// fails on an unknown column, as Prob does.
func (t *Table) ProbDeps(attrs ...string) ([]int, error) {
	var deps []int
	for _, a := range attrs {
		col, ok := t.schema.Lookup(a)
		if !ok {
			return nil, fmt.Errorf("core: unknown column %q", a)
		}
		if !col.Uncertain {
			continue
		}
		if di := t.depOf(t.idOf(a)); !slices.Contains(deps, di) {
			deps = append(deps, di)
		}
	}
	return deps, nil
}

// PlanRangeThreshold compiles "keep tuples with Pr(attr ∈ [lo, hi]) op p".
func (t *Table) PlanRangeThreshold(attr string, lo, hi float64, op region.Op, p float64) *ProbSelection {
	ps := &ProbSelection{
		in:   t,
		out:  t.shallowDerived(fmt.Sprintf("σPr∈(%s)", t.Name)),
		op:   op,
		p:    p,
		kind: probRange,
		attr: attr,
		lo:   lo,
		hi:   hi,
		z:    colpdf.ThresholdZ(p),
	}
	id := t.idOf(attr)
	if id == 0 {
		ps.resolveErr = fmt.Errorf("core: unknown column %q", attr)
		return ps
	}
	di := t.depOf(id)
	if di < 0 {
		ps.resolveErr = fmt.Errorf("core: column %q is certain", attr)
		return ps
	}
	ps.dep = di
	ps.dim = t.deps[di].dimOf(id)
	return ps
}

// Out returns the (empty) derived table the selection produces tuples for.
// Kept tuples pass through unchanged (Append them as-is).
func (p *ProbSelection) Out() *Table { return p.out }

// Keep reports whether the tuple's probability value satisfies the
// threshold — the scalar reference path. Safe to call concurrently: it
// reads only planning state and the tuple.
func (p *ProbSelection) Keep(tup *Tuple) (bool, error) {
	var pr float64
	var err error
	if p.kind == probMass {
		pr, err = p.in.Prob(tup, p.attrs...)
	} else {
		pr, err = p.in.ProbInRange(tup, p.attr, p.lo, p.hi)
	}
	if err != nil {
		return false, err
	}
	return p.op.Eval(pr, p.p), nil
}

// Report returns the kernel's evaluation summary for EXPLAIN and stats.
func (p *ProbSelection) Report() KernelReport { return p.stats.report(p.out.Name) }

// KeepBatch evaluates one streamed batch, writing keep decisions into keep
// (len(keep) == len(in)); vals is the caller's scratch for the batch's
// probabilities, of the same length. It serves the pipelined executor:
// batches arrive in table order, so a sequential cursor locates their slots
// in the input table; a batch that is not a verified slice of a base table
// still vectorizes, with a scratch encoding.
func (p *ProbSelection) KeepBatch(in []*Tuple, keep []bool, vals []float64) error {
	return p.keepBatchAt(in, p.in.slotOf(&p.cursor, in), keep, vals)
}

// keepBatchAt is the batch body shared by KeepBatch and the whole-table
// driver RunProbSelection, which passes the batch's slot explicitly (nil:
// no slot, evaluate with a scratch encoding).
func (p *ProbSelection) keepBatchAt(in []*Tuple, slot encSlot, keep []bool, vals []float64) error {
	n := len(in)
	if n == 0 {
		return nil
	}
	if !VectorizedKernels() || p.resolveErr != nil {
		return p.keepTuples(in, keep)
	}
	vals = vals[:n]
	if p.kind == probMass {
		for i := range vals {
			vals[i] = 1
		}
		for _, di := range p.deps {
			b := p.in.colBlockFor(di, 0, slot, in)
			m := b.Mass()
			for i := 0; i < n; i++ {
				vals[i] *= m[i]
			}
			p.stats.note(b.Stats(), true)
		}
		if len(p.deps) == 0 {
			p.stats.vec.Add(uint64(n)) // Pr over certain columns is 1
		}
	} else {
		b := p.in.colBlockFor(p.dep, p.dim, slot, in)
		b.EvalIntervalBounded(region.Closed(p.lo, p.hi), p.z, vals)
		p.stats.note(b.Stats(), false)
	}
	for i := 0; i < n; i++ {
		keep[i] = p.op.Eval(vals[i], p.p)
	}
	return nil
}

// keepTuples decides every tuple of in through Keep: the scalar reference,
// and the path of a threshold that does not resolve, whose error Keep
// reports per tuple. It runs inline, like the vectorized loop.
func (p *ProbSelection) keepTuples(in []*Tuple, keep []bool) error {
	p.stats.scalar.Add(uint64(len(in)))
	for i, tup := range in {
		k, err := p.Keep(tup)
		if err != nil {
			return err
		}
		keep[i] = k
	}
	return nil
}

// Projection is a compiled Project (§III-B). With history tracking on,
// every dependency set is kept whole — the projected-out attributes of an
// overlapping set, and every attribute of an invisible one, become phantoms
// with fresh identities — so a projected tuple is its input tuple: the
// derived table differs only in its header, whose certain-offset map picks
// the visible values out of the input's. With tracking off, overlapping sets
// are marginalized onto the visible attributes per tuple and invisible ones
// dropped (Fig. 6's baseline); the certain values are still shared.
type Projection struct {
	out *Table
	// marg is nil with tracking on; otherwise marg[si] lists the visible
	// dimensions input set si is marginalized onto (nil: the set is dropped).
	marg [][]int
}

// PlanProject compiles Π_names against the table's header.
func (t *Table) PlanProject(names ...string) (*Projection, error) {
	schema, err := t.schema.Project(names)
	if err != nil {
		return nil, err
	}
	p := &Projection{}
	ids := make([]AttrID, len(names))
	cert := make([]int, len(names))
	visible := map[AttrID]bool{}
	for i, n := range names {
		col := t.schema.Index(n)
		ids[i], cert[i] = t.ids[col], t.CertainOffset(col)
		visible[ids[i]] = true
	}
	p.out = &Table{
		Name:         fmt.Sprintf("π(%s)", t.Name),
		schema:       schema,
		ids:          ids,
		cert:         cert,
		reg:          t.reg,
		trackHistory: t.trackHistory,
	}
	if !t.trackHistory {
		p.marg = make([][]int, len(t.deps))
	}
	for si, d := range t.deps {
		if t.trackHistory {
			// Phantom positions get fresh attribute identities: the column
			// label is gone from the visible schema, and reusing the old id
			// would collide when two projections of the same table meet in a
			// cross product. The node's vars keep the true variable identity.
			nd := d.clone()
			for dim, id := range nd.ids {
				if !visible[id] {
					nd.ids[dim] = newAttrID()
				}
			}
			p.out.deps = append(p.out.deps, nd)
			continue
		}
		nd := &depSet{}
		for dim, id := range d.ids {
			if visible[id] {
				p.marg[si] = append(p.marg[si], dim)
				nd.ids = append(nd.ids, id)
				nd.names = append(nd.names, d.names[dim])
				nd.types = append(nd.types, d.types[dim])
			}
		}
		if len(nd.ids) > 0 {
			p.out.deps = append(p.out.deps, nd)
		}
	}
	return p, nil
}

// Out returns the (empty) derived table the projection produces tuples for.
func (p *Projection) Out() *Table { return p.out }

// AppendBatch appends the projections of in to dst and returns the extended
// slice. With tracking on they are the input tuples themselves, and nothing
// is allocated beyond dst's growth; with tracking off each tuple gets its
// marginalized nodes, sharing its certain values. Safe to call concurrently:
// it reads only planning state and the input tuples.
func (p *Projection) AppendBatch(dst, in []*Tuple) []*Tuple {
	if p.marg == nil {
		return append(dst, in...)
	}
	tups := make([]Tuple, len(in))
	for i, tup := range in {
		tups[i] = makeTuple(tup.certain, p.marginalize(tup))
		dst = append(dst, &tups[i])
	}
	return dst
}

// marginalize builds a tuple's nodes with history tracking off: each kept
// set's pdf marginalized onto its visible dimensions, without history.
func (p *Projection) marginalize(tup *Tuple) []*PDFNode {
	var nodes []*PDFNode
	for si, dims := range p.marg {
		if dims == nil {
			continue
		}
		n := tup.nodes[si]
		d := n.Dist
		if len(dims) != d.Dim() {
			d = d.Marginal(dims)
		}
		vars := make([]varRef, len(dims))
		for i, dim := range dims {
			vars[i] = n.vars[dim]
		}
		nodes = append(nodes, &PDFNode{Dist: d, vars: vars})
	}
	return nodes
}

// CrossKernel is a compiled cross product: the product table's shape (built
// once, with the identity-collision analysis of §III-D) and a pair function
// concatenating one left and one right tuple.
type CrossKernel struct {
	out, l, r *Table
}

// PlanCross compiles t × o: registry and identity checks, the concatenated
// schema, and the product dependency structure. The returned kernel's Out
// table is empty; Pair builds one product tuple.
func (t *Table) PlanCross(o *Table) (*CrossKernel, error) {
	if t.reg != o.reg {
		return nil, fmt.Errorf("core: cross product across registries (%s × %s)", t.Name, o.Name)
	}
	seen := map[AttrID]bool{}
	for _, id := range t.ids {
		seen[id] = true
	}
	for _, d := range t.deps {
		for _, id := range d.ids {
			seen[id] = true
		}
	}
	// Certain columns carried through both branches (e.g. a key that was
	// projected into both sides) collide in identity but carry no history —
	// a constant is trivially independent of itself — so the right side gets
	// fresh identities for them. Colliding *uncertain* attributes mean the
	// operand really is a dependent copy of the receiver, which the model
	// does not define semantics for (self-joins need duplicate semantics the
	// paper leaves as ongoing work).
	oIDs := append([]AttrID(nil), o.ids...)
	for i, id := range oIDs {
		if !seen[id] {
			continue
		}
		if o.schema.Columns()[i].Uncertain {
			return nil, fmt.Errorf("core: cross product of %s with a dependent copy of itself is not supported", t.Name)
		}
		oIDs[i] = newAttrID()
	}
	for _, d := range o.deps {
		for _, id := range d.ids {
			if seen[id] {
				return nil, fmt.Errorf("core: cross product of %s with a dependent copy of itself is not supported", t.Name)
			}
		}
	}
	cols := append(append([]Column(nil), t.schema.Columns()...), o.schema.Columns()...)
	newSchema, err := NewSchema(cols)
	if err != nil {
		return nil, fmt.Errorf("core: cross product %s × %s: %v (rename columns first)", t.Name, o.Name, err)
	}
	out := &Table{
		Name:         fmt.Sprintf("%s×%s", t.Name, o.Name),
		schema:       newSchema,
		ids:          append(append([]AttrID(nil), t.ids...), oIDs...),
		reg:          t.reg,
		trackHistory: t.trackHistory && o.trackHistory,
	}
	out.deps = append(append([]*depSet(nil), t.deps...), o.deps...)
	return &CrossKernel{out: out, l: t, r: o}, nil
}

// Out returns the (empty) product table.
func (k *CrossKernel) Out() *Table { return k.out }

// Pair concatenates one left and one right tuple into a product tuple:
// each side's visible certain values in schema order, then its nodes.
func (k *CrossKernel) Pair(a, b *Tuple) *Tuple {
	certain := k.r.appendCertain(k.l.appendCertain(make([]Value, 0, k.out.schema.Len()), a), b)
	nodes := append(append(make([]*PDFNode, 0, len(a.nodes)+len(b.nodes)), a.nodes...), b.nodes...)
	tup := makeTuple(certain, nodes)
	return &tup
}

// EquiJoinKernel is a compiled hash equi-join: the product table's shape and
// a hash index over the build (right) side's tuples keyed by the certain
// join column. Build fills the index; AppendMatches then streams the left
// side one tuple at a time.
type EquiJoinKernel struct {
	cross  *CrossKernel
	out    *Table
	index  map[OrderKey][]*Tuple
	li, ri int
}

// PlanEquiJoin compiles t ⋈ o on certain key columns: the product shape via
// PlanCross, and an empty hash index for Build to fill with o's tuples — or
// with the subset of them a filter under the join lets through. Only o's
// shape is read here.
func (t *Table) PlanEquiJoin(o *Table, leftKey, rightKey string) (*EquiJoinKernel, error) {
	lcol, ok := t.schema.Lookup(leftKey)
	if !ok {
		return nil, fmt.Errorf("core: unknown column %q", leftKey)
	}
	rcol, ok := o.schema.Lookup(rightKey)
	if !ok {
		return nil, fmt.Errorf("core: unknown column %q", rightKey)
	}
	if lcol.Uncertain || rcol.Uncertain {
		return nil, fmt.Errorf("core: EquiJoin keys must be certain columns (use Join for uncertain predicates)")
	}
	cross, err := t.PlanCross(o)
	if err != nil {
		return nil, err
	}
	cross.out.Name = fmt.Sprintf("%s⋈%s", t.Name, o.Name)
	return &EquiJoinKernel{
		cross: cross,
		out:   cross.out,
		index: map[OrderKey][]*Tuple{},
		li:    t.CertainOffset(t.schema.Index(leftKey)),
		ri:    o.CertainOffset(o.schema.Index(rightKey)),
	}, nil
}

// Out returns the (empty) join result table.
func (k *EquiJoinKernel) Out() *Table { return k.out }

// Build adds build-side tuples to the hash index, in the order AppendMatches
// is to pair them. The key is the column's OrderKey — INT and FLOAT folded to
// one number kind — so two keys collide exactly when Value.Equal holds: 1e6
// meets 1000000 and -0.0 meets 0, which their renderings would keep apart.
// NULL keys join nothing.
func (k *EquiJoinKernel) Build(tups []*Tuple) {
	for _, tup := range tups {
		if key := tup.OrderKey(k.ri); key.kind != NullValue {
			k.index[key] = append(k.index[key], tup)
		}
	}
}

// BuildSize estimates the bytes the hash build side holds: the indexed
// tuple references plus per-key map overhead. Operators charge it against
// the query budget once they have built the index.
func (k *EquiJoinKernel) BuildSize() int64 {
	var n int64
	for _, bs := range k.index {
		n += int64(len(bs)) * 24 // slice entry + amortized tuple ref
	}
	return n + int64(len(k.index))*64 // map buckets + keys
}

// AppendMatches appends the product tuples the left tuple contributes, in
// build order (the sequential nested-loop pair order), and returns the
// extended slice; a NULL or unmatched key appends nothing. Safe to call
// concurrently once the index is built: it is read-only.
func (k *EquiJoinKernel) AppendMatches(dst []*Tuple, a *Tuple) []*Tuple {
	key := a.OrderKey(k.li)
	if key.kind == NullValue {
		return dst
	}
	for _, b := range k.index[key] {
		dst = append(dst, k.cross.Pair(a, b))
	}
	return dst
}

// Append adds a tuple produced by one of the table's kernels (or shared from
// the kernel's input, for pure filters) to the table. It is the assembly
// half of the whole-table drivers (RunSelection, RunProbSelection).
func (t *Table) Append(tup *Tuple) { t.tuples = append(t.tuples, tup) }
