package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync/atomic"

	"probdb/internal/dist"
)

// AttrID is the internal identity of an attribute. Identities survive
// renames, projections and cross products, so the history machinery can
// match a derived pdf's dimensions against base-table pdfs no matter what
// the columns are called by the time they meet again in a join.
type AttrID uint64

var attrIDCounter atomic.Uint64

func newAttrID() AttrID { return AttrID(attrIDCounter.Add(1)) }

// depSet is one dependency set of Δ: an ordered list of jointly-distributed
// attributes. Attributes may be phantom — retained by a projection to keep
// floors and correlations (§III-B) — in which case they appear here but not
// in the visible schema.
type depSet struct {
	ids   []AttrID
	names []string
	types []AttrType
}

func (d *depSet) clone() *depSet {
	c := &depSet{
		ids:   append([]AttrID(nil), d.ids...),
		names: append([]string(nil), d.names...),
		types: append([]AttrType(nil), d.types...),
	}
	return c
}

// dimOf returns the dimension index of the given attribute id, or -1.
func (d *depSet) dimOf(id AttrID) int {
	for i, x := range d.ids {
		if x == id {
			return i
		}
	}
	return -1
}

// PDFNode is one pdf instance: the distribution of one dependency set in
// one tuple, together with its history Λ (the set of base pdfs it derives
// from, Definition 2).
type PDFNode struct {
	Dist dist.Dist
	Anc  AncestorSet
	// vars identifies the random variable behind each dimension of Dist:
	// which base pdf and which of its dimensions. Variable identity is what
	// lets joins recognize two derivations of the same base pdf (Fig. 3).
	vars []varRef
	// pristine marks a node whose Dist is still exactly the registered base
	// distribution — no floors applied — letting the dependent-product
	// reconstruction skip a redundant floor-propagation pass.
	pristine bool
}

// Tuple is one probabilistic tuple: certain values (positions holding
// uncertain columns are Null), one PDFNode per dependency set of the owning
// table, and the tuple's existence probability. A table reads its visible
// columns' values through its certain-offset map, so a projection's tuples
// are its input's tuples. Tuples are immutable once built.
type Tuple struct {
	certain []Value
	nodes   []*PDFNode
	// exists is the product of the nodes' masses in node order (§II-B),
	// fixed when the nodes are: ExistenceProb returns it.
	exists float64
}

// makeTuple builds a tuple of certain values and nodes — the one place a
// tuple's existence probability is computed.
func makeTuple(certain []Value, nodes []*PDFNode) Tuple {
	p := 1.0
	for _, n := range nodes {
		p *= n.Dist.Mass()
	}
	return Tuple{certain: certain, nodes: nodes, exists: p}
}

// Table is a probabilistic relation: a visible schema Σ, dependency
// information Δ (with phantom attributes), a shared base-pdf registry, and
// tuples. Tables are immutable under the relational operators — Select,
// Project, CrossProduct, Join and ThresholdSelect return new tables sharing
// the registry — while Insert and Delete mutate the receiver (base-table
// maintenance).
type Table struct {
	Name   string
	schema *Schema
	ids    []AttrID // identity of each visible column
	deps   []*depSet
	reg    *Registry
	tuples []*Tuple
	// cert maps each visible column to its offset in a tuple's certain
	// values; nil is the identity, which every base table keeps. A
	// projection composes it from its input's map and shares the input's
	// tuples.
	cert []int
	// trackHistory enables Λ maintenance. Disabling it reproduces the
	// incorrect-but-cheaper baseline of Fig. 3/Fig. 6: all products are
	// treated as independent.
	trackHistory bool
	// enc holds the columnar encodings of a base table, one slot per
	// colBatchSize-row batch (columnar.go). It is nil for derived tables,
	// whose batches encode into per-batch scratch, and non-nil — even when
	// empty — for a base table, so store knows to keep it in step.
	enc []encSlot
}

// NewTable creates an empty table with the given visible schema and
// dependency information. deps lists the correlated attribute groups of Δ
// in the order their joint pdfs will be supplied at insert; uncertain
// columns not mentioned get singleton sets automatically (§II-A). The
// registry may be shared across tables; pass nil for a fresh one.
func NewTable(name string, schema *Schema, deps [][]string, reg *Registry) (*Table, error) {
	if reg == nil {
		reg = NewRegistry()
	}
	t := &Table{Name: name, schema: schema, reg: reg, trackHistory: true, enc: []encSlot{}}
	t.ids = make([]AttrID, schema.Len())
	for i := range t.ids {
		t.ids[i] = newAttrID()
	}
	seen := map[string]bool{}
	for _, set := range deps {
		if len(set) == 0 {
			return nil, fmt.Errorf("core: empty dependency set")
		}
		ds := &depSet{}
		for _, name := range set {
			col, ok := schema.Lookup(name)
			if !ok {
				return nil, fmt.Errorf("core: dependency set references unknown column %q", name)
			}
			if !col.Uncertain {
				return nil, fmt.Errorf("core: dependency set references certain column %q", name)
			}
			if seen[name] {
				return nil, fmt.Errorf("core: column %q appears in two dependency sets", name)
			}
			seen[name] = true
			ds.ids = append(ds.ids, t.ids[schema.Index(name)])
			ds.names = append(ds.names, name)
			ds.types = append(ds.types, col.Type)
		}
		t.deps = append(t.deps, ds)
	}
	// Singleton sets for unmentioned uncertain columns.
	for _, c := range schema.Columns() {
		if c.Uncertain && !seen[c.Name] {
			t.deps = append(t.deps, &depSet{
				ids:   []AttrID{t.ids[schema.Index(c.Name)]},
				names: []string{c.Name},
				types: []AttrType{c.Type},
			})
		}
	}
	return t, nil
}

// MustTable is NewTable that panics on error.
func MustTable(name string, schema *Schema, deps [][]string, reg *Registry) *Table {
	t, err := NewTable(name, schema, deps, reg)
	if err != nil {
		panic(err)
	}
	return t
}

// Schema returns the table's visible schema Σ.
func (t *Table) Schema() *Schema { return t.schema }

// Registry returns the base-pdf registry the table shares with its
// derivations.
func (t *Table) Registry() *Registry { return t.reg }

// Len returns the number of tuples.
func (t *Table) Len() int { return len(t.tuples) }

// Tuples returns the table's tuples. The returned slice and its contents
// must not be modified.
func (t *Table) Tuples() []*Tuple { return t.tuples }

// TupleCost estimates the in-memory bytes one tuple of this table costs:
// struct headers, the certain-value slice, and one pdf node per dependency
// set. It is an accounting estimate for the govern budgets — deliberately
// coarse (pdf parameter blocks vary widely) but stable, so budget checks
// stay deterministic across runs.
func (t *Table) TupleCost() int64 {
	return 96 + 48*int64(t.schema.Len()+len(t.deps))
}

// Freeze returns an immutable copy-on-write snapshot of the table. The
// snapshot shares the current tuple pointers and batch encodings, both capped
// so no append can leak into it; Delete compacts into fresh slices (never in
// place) to keep frozen views intact. The tuples reach their base pdfs, so a
// snapshot keeps every pdf it can read alive for as long as a reader holds it.
func (t *Table) Freeze() *Table {
	c := *t
	c.tuples = t.tuples[:len(t.tuples):len(t.tuples)]
	c.enc = t.enc[:len(t.enc):len(t.enc)]
	return &c
}

// Clone returns a mutable copy of the table — the building block of
// transaction overlays. It shares the tuples copy-on-write, as Freeze does,
// so Inserts and Deletes on it never disturb the original, and shares the
// encodings of every full batch. A partial last batch gets a fresh slot:
// the original and the clone may each append different rows to it.
func (t *Table) Clone() *Table {
	c := t.Freeze()
	if n := len(t.tuples); n%colBatchSize != 0 && t.enc != nil {
		c.enc = append(make([]encSlot, 0, len(t.enc)), t.enc...)
		c.enc[len(c.enc)-1] = t.newSlot()
	}
	return c
}

// SetTrackHistory toggles history (Λ) maintenance for subsequently derived
// tables. With tracking off, products of dependent pdfs are incorrectly
// treated as independent — the baseline the paper measures overhead against
// in Fig. 6. New tables default to tracking on.
func (t *Table) SetTrackHistory(on bool) { t.trackHistory = on }

// TrackHistory reports whether history maintenance is enabled.
func (t *Table) TrackHistory() bool { return t.trackHistory }

// DepSets returns the dependency information Δ as attribute-name groups,
// including phantom attributes.
func (t *Table) DepSets() [][]string {
	out := make([][]string, len(t.deps))
	for i, d := range t.deps {
		out[i] = append([]string(nil), d.names...)
	}
	return out
}

// PhantomAttrs returns the names of attributes kept in Δ but not visible in
// Σ (the phantom attributes of §II-A/§III-B).
func (t *Table) PhantomAttrs() []string {
	var out []string
	for _, d := range t.deps {
		for i, id := range d.ids {
			if !t.visibleID(id) {
				out = append(out, d.names[i])
			}
		}
	}
	return out
}

func (t *Table) visibleID(id AttrID) bool {
	for _, v := range t.ids {
		if v == id {
			return true
		}
	}
	return false
}

// idOf returns the AttrID of a visible column, or 0.
func (t *Table) idOf(name string) AttrID {
	i := t.schema.Index(name)
	if i < 0 {
		return 0
	}
	return t.ids[i]
}

// depOf returns the index of the dependency set containing the attribute
// id, or -1 (certain attributes belong to no set).
func (t *Table) depOf(id AttrID) int {
	for i, d := range t.deps {
		if d.dimOf(id) >= 0 {
			return i
		}
	}
	return -1
}

// PDF assigns a joint distribution to one dependency set at insert time.
// Attrs must list the set's attributes in the declared order.
type PDF struct {
	Attrs []string
	Dist  dist.Dist
}

// Row is the insert payload: values for the certain columns and one PDF per
// dependency set. Certain columns may be omitted (NULL).
type Row struct {
	Values map[string]Value
	PDFs   []PDF
}

// Insert adds a probabilistic tuple. Each dependency set must be covered by
// exactly one PDF whose attribute list matches the declared order and whose
// dimensionality matches; partial pdfs (0 < mass < 1) are allowed and mean
// the tuple itself is uncertain (§II-B), but a pdf with no mass is rejected:
// a tuple that exists with probability 0 is not stored. The whole row is
// checked before any pdf is registered, so a rejected row leaves nothing
// behind. Each pdf is registered as a base pdf and becomes its own ancestor
// (Definition 2). Insert keeps the row's distributions but not
// its Values map or PDFs slice, which the caller may reuse for the next row.
func (t *Table) Insert(row Row) error {
	return t.InsertRows(1, func(int) (Row, error) { return row, nil })
}

// InsertRows inserts a statement's n rows, all or nothing: row(i) supplies
// the i-th, and every row is laid out and checked before any is stored, so
// a rejected row, or an error from row, leaves the table as it was. Like
// Insert it keeps no Values map or PDFs slice, so row may hand out the same
// ones each time.
func (t *Table) InsertRows(n int, row func(i int) (Row, error)) error {
	k := len(t.deps)
	certain := make([][]Value, n)
	pdfs := make([]dist.Dist, n*k)
	for i := range certain {
		r, err := row(i)
		if err == nil {
			certain[i], err = t.layout(r, pdfs[i*k:(i+1)*k])
		}
		if err == nil {
			err = t.check(certain[i], pdfs[i*k:(i+1)*k])
		}
		if err != nil {
			return err
		}
	}
	for i, c := range certain {
		t.store(c, pdfs[i*k:(i+1)*k])
	}
	return nil
}

// layout maps a row into table order: it returns one value per schema
// column and fills pdfs with one distribution per dependency set, in
// DepSets order.
func (t *Table) layout(row Row, pdfs []dist.Dist) ([]Value, error) {
	certain := make([]Value, t.schema.Len())
	for name, v := range row.Values {
		i := t.schema.Index(name)
		if i < 0 {
			return nil, fmt.Errorf("core: insert into %s: unknown column %q", t.Name, name)
		}
		certain[i] = v
	}
	for _, p := range row.PDFs {
		di := t.matchDepSet(p.Attrs)
		if di < 0 {
			return nil, fmt.Errorf("core: insert into %s: %v does not match a dependency set (Δ = %v)", t.Name, p.Attrs, t.DepSets())
		}
		if pdfs[di] != nil {
			return nil, fmt.Errorf("core: insert into %s: dependency set %v assigned twice", t.Name, p.Attrs)
		}
		if p.Dist == nil {
			return nil, fmt.Errorf("core: insert into %s: nil distribution for %v", t.Name, p.Attrs)
		}
		pdfs[di] = p.Dist
	}
	return certain, nil
}

// InsertValues is Insert by position, for a loader that reads rows in the
// table's own layout: certain holds one value per schema column (NULL at
// the uncertain ones) and pdfs one distribution per dependency set, in
// DepSets order. The checks are Insert's; the table copies certain and
// keeps the distributions, so the caller may reuse both slices.
func (t *Table) InsertValues(certain []Value, pdfs []dist.Dist) error {
	if len(certain) != t.schema.Len() || len(pdfs) != len(t.deps) {
		return fmt.Errorf("core: insert into %s: %d values and %d pdfs for %d columns and %d dependency sets",
			t.Name, len(certain), len(pdfs), t.schema.Len(), len(t.deps))
	}
	if err := t.check(certain, pdfs); err != nil {
		return err
	}
	t.store(append([]Value(nil), certain...), pdfs)
	return nil
}

// check checks a row in table layout: no value at an uncertain column, and
// one pdf per dependency set, present, of the set's dimensionality, with
// mass.
func (t *Table) check(certain []Value, pdfs []dist.Dist) error {
	for i, c := range t.schema.Columns() {
		if c.Uncertain && !certain[i].IsNull() {
			return fmt.Errorf("core: insert into %s: column %q is uncertain; supply a PDF", t.Name, c.Name)
		}
	}
	for di, d := range pdfs {
		names := t.deps[di].names
		if d == nil {
			return fmt.Errorf("core: insert into %s: dependency set %v not assigned", t.Name, names)
		}
		if d.Dim() != len(names) {
			return fmt.Errorf("core: insert into %s: %v needs %d dims, distribution has %d",
				t.Name, names, len(names), d.Dim())
		}
		if m := d.Mass(); !(m > 0) {
			return fmt.Errorf("core: insert into %s: distribution for %v has mass %v; a tuple needs existence probability > 0", t.Name, names, m)
		}
	}
	return nil
}

// store registers a checked row's pdfs and appends the tuple, which keeps
// certain. A base table's row that opens a batch gets the batch a slot.
func (t *Table) store(certain []Value, pdfs []dist.Dist) {
	nodes := make([]*PDFNode, len(pdfs))
	for di, d := range pdfs {
		nodes[di] = t.reg.registerNode(d)
	}
	tup := makeTuple(certain, nodes)
	t.tuples = append(t.tuples, &tup)
	if t.enc != nil && len(t.enc)*colBatchSize < len(t.tuples) {
		t.enc = append(t.enc, t.newSlot())
	}
}

// matchDepSet returns the index of the dependency set whose names equal
// attrs in order, or -1.
func (t *Table) matchDepSet(attrs []string) int {
	for i, d := range t.deps {
		if len(d.names) != len(attrs) {
			continue
		}
		match := true
		for j := range attrs {
			if d.names[j] != attrs[j] {
				match = false
				break
			}
		}
		if match {
			return i
		}
	}
	return -1
}

// Value returns the certain value of the named column in the tuple, with
// ok=false when the column is uncertain or unknown.
func (t *Table) Value(tup *Tuple, name string) (Value, bool) {
	i := t.schema.Index(name)
	if i < 0 || t.schema.Columns()[i].Uncertain {
		return Null, false
	}
	return tup.certain[t.CertainOffset(i)], true
}

// CertainOffset returns the offset in a tuple's certain values of visible
// column col — the offset Tuple.OrderKey takes. Every schema position reads
// a certain value through it.
func (t *Table) CertainOffset(col int) int {
	if t.cert == nil {
		return col
	}
	return t.cert[col]
}

// appendCertain appends the tuple's visible certain values, in schema
// order, to dst.
func (t *Table) appendCertain(dst []Value, tup *Tuple) []Value {
	if t.cert == nil {
		return append(dst, tup.certain...)
	}
	for _, c := range t.cert {
		dst = append(dst, tup.certain[c])
	}
	return dst
}

// DistOf returns the marginal distribution of the named uncertain column in
// the tuple. The marginal of a partial pdf keeps the tuple's existence
// probability (mass).
func (t *Table) DistOf(tup *Tuple, name string) (dist.Dist, error) {
	id := t.idOf(name)
	if id == 0 {
		return nil, fmt.Errorf("core: unknown column %q", name)
	}
	di := t.depOf(id)
	if di < 0 {
		return nil, fmt.Errorf("core: column %q is certain", name)
	}
	return Locator{dep: di, dim: t.deps[di].dimOf(id)}.Dist(tup), nil
}

// Locator is where one visible column's cell lives in a table's tuples,
// resolved once per header so that reading a row's cells does no name
// lookups: a certain column's offset, or an uncertain column's dependency
// set and dimension.
type Locator struct {
	col, dep, dim int // dep < 0: a certain column
}

// Locators resolves every visible column, in schema order.
func (t *Table) Locators() []Locator {
	locs := make([]Locator, len(t.ids))
	for i, id := range t.ids {
		locs[i] = Locator{col: t.CertainOffset(i), dep: -1}
		if di := t.depOf(id); di >= 0 {
			locs[i].dep, locs[i].dim = di, t.deps[di].dimOf(id)
		}
	}
	return locs
}

// Uncertain reports whether the column is uncertain (read it with Dist) or
// certain (read it with Value).
func (l Locator) Uncertain() bool { return l.dep >= 0 }

// Value returns a certain column's value in the tuple.
func (l Locator) Value(tup *Tuple) Value { return tup.certain[l.col] }

// Dist returns an uncertain column's marginal pdf in the tuple — the
// marginal of a partial pdf keeps the tuple's existence probability.
func (l Locator) Dist(tup *Tuple) dist.Dist {
	d := tup.nodes[l.dep].Dist
	if d.Dim() == 1 {
		return d
	}
	return d.Marginal([]int{l.dim})
}

// NodeOf returns the PDFNode holding the named uncertain column's
// dependency set in the tuple.
func (t *Table) NodeOf(tup *Tuple, name string) (*PDFNode, error) {
	id := t.idOf(name)
	if id == 0 {
		return nil, fmt.Errorf("core: unknown column %q", name)
	}
	di := t.depOf(id)
	if di < 0 {
		return nil, fmt.Errorf("core: column %q is certain", name)
	}
	return tup.nodes[di], nil
}

// DepDist returns the pdf of dependency set i (indexing DepSets()) in the
// tuple, including phantom dimensions.
func (t *Table) DepDist(tup *Tuple, i int) dist.Dist { return tup.nodes[i].Dist }

// ExistenceProb returns the probability that the tuple exists: the product
// of its dependency sets' masses (partial pdfs, §II-B), computed when the
// tuple was built. A freshly inserted tuple with complete pdfs has existence
// probability 1.
func (t *Table) ExistenceProb(tup *Tuple) float64 { return tup.exists }

// CheckExistence reports the first of tups whose existence probability is
// not, bit for bit, the product of its nodes' masses in node order — what
// every tuple constructor must record. Tests call it on operator outputs.
func CheckExistence(tups []*Tuple) error {
	for i, tup := range tups {
		p := 1.0
		for _, n := range tup.nodes {
			p *= n.Dist.Mass()
		}
		if math.Float64bits(p) != math.Float64bits(tup.exists) {
			return fmt.Errorf("core: tuple %d records existence %v, its nodes' masses multiply to %v", i, tup.exists, p)
		}
	}
	return nil
}

// shallowDerived returns a new empty table sharing schema identity,
// registry, and history setting — the starting point of every operator.
func (t *Table) shallowDerived(name string) *Table {
	d := &Table{
		Name:         name,
		schema:       t.schema,
		ids:          t.ids,
		cert:         t.cert,
		reg:          t.reg,
		trackHistory: t.trackHistory,
	}
	d.deps = make([]*depSet, len(t.deps))
	copy(d.deps, t.deps)
	return d
}

// View returns a derived table of the given tuples — rows of the receiver's
// shape, such as an index probe's candidates or the batches an operator tree
// produced. The view keeps tups and never writes to it, so the caller must
// not write to it afterwards either.
func (t *Table) View(name string, tups []*Tuple) *Table {
	out := t.shallowDerived(name)
	out.tuples = tups
	out.settle()
	return out
}

// settle drops the dependency sets a table holding all of its rows can tell
// it does not need: a set with no visible attribute whose pdf has mass 1 in
// every tuple carries neither a value nor tuple-existence probability
// (§III-B). A streamed projection keeps every such set as phantoms, since a
// later row may be partial; a materialized result decides.
func (t *Table) settle() {
	var drop []bool
	dropped := 0
	for si, d := range t.deps {
		if slices.ContainsFunc(d.ids, t.visibleID) ||
			slices.ContainsFunc(t.tuples, func(tup *Tuple) bool { return tup.nodes[si].Dist.Mass() < 1 }) {
			continue
		}
		if drop == nil {
			drop = make([]bool, len(t.deps))
		}
		drop[si] = true
		dropped++
	}
	if dropped == 0 {
		return
	}
	deps := make([]*depSet, 0, len(t.deps)-dropped)
	for si, d := range t.deps {
		if !drop[si] {
			deps = append(deps, d)
		}
	}
	tups := make([]Tuple, len(t.tuples))
	ptrs := make([]*Tuple, len(t.tuples))
	nodes := make([]*PDFNode, 0, len(t.tuples)*len(deps))
	for i, tup := range t.tuples {
		at := len(nodes)
		for si, n := range tup.nodes {
			if !drop[si] {
				nodes = append(nodes, n)
			}
		}
		tups[i] = makeTuple(tup.certain, nodes[at:len(nodes):len(nodes)])
		ptrs[i] = &tups[i]
	}
	t.tuples, t.deps = ptrs, deps
}

// Render formats the table for display: visible columns plus the marginal
// pdf of each uncertain column, one line per tuple.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s", t.Name, t.schema.String())
	if ph := t.PhantomAttrs(); len(ph) > 0 {
		fmt.Fprintf(&b, " phantom%v", ph)
	}
	b.WriteByte('\n')
	for _, tup := range t.tuples {
		parts := make([]string, 0, t.schema.Len()+1)
		for _, c := range t.schema.Columns() {
			if c.Uncertain {
				d, err := t.DistOf(tup, c.Name)
				if err != nil {
					parts = append(parts, "?")
					continue
				}
				parts = append(parts, fmt.Sprintf("%s=%s", c.Name, d.String()))
			} else {
				v, _ := t.Value(tup, c.Name)
				parts = append(parts, fmt.Sprintf("%s=%s", c.Name, v.Render()))
			}
		}
		if p := t.ExistenceProb(tup); p < 1 {
			parts = append(parts, fmt.Sprintf("Pr(exists)=%.4g", p))
		}
		fmt.Fprintf(&b, "  [%s]\n", strings.Join(parts, ", "))
	}
	return b.String()
}
