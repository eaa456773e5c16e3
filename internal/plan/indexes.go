package plan

import (
	"fmt"
	"math"
	"slices"

	"probdb/internal/btree"
	"probdb/internal/core"
	"probdb/internal/index"
	"probdb/internal/region"
	"probdb/internal/storage"
)

// TableIndexes is the access-path state of one table: a PTI per indexed
// uncertain column, a btree per indexed certain column, and the stable
// rowid identity that ties index entries to tuples across DML. All methods
// follow the catalog's locking discipline — probes under the read lock,
// maintenance under the write lock.
//
// Rowids are assigned in base-table order: Create walks t.Tuples() front to
// back, INSERT appends to the tail and takes the next rowid, and
// core.Table.Delete compacts without reordering. Ascending rowid is therefore
// base-table order, which is what lets Restrict turn an ascending candidate
// list into base-ordered tuples without looking at the table. Check asserts
// it.
type TableIndexes struct {
	pti map[string]*index.Index
	bt  map[string]*certIndex

	rowOf map[*core.Tuple]int64
	tupOf map[int64]*core.Tuple // inverse of rowOf
	next  int64
}

// certIndex is a btree access path over a certain column. Only integer
// values become btree keys; rows whose value is NULL or non-integer land on
// the spill list and are candidates for every probe (candidates must be a
// superset — the residual predicate re-verifies them). Deletes tombstone;
// crossing the same fragmentation threshold as the PTI triggers a rebuild.
type certIndex struct {
	tree  *btree.Tree
	keyOf map[int64]int64 // rowid -> key, for rebuild enumeration
	spill []int64         // ascending rowids indexed outside the tree
	dead  map[int64]bool  // tombstoned rowids still present in the tree
}

// NewTableIndexes creates an empty index set.
func NewTableIndexes() *TableIndexes {
	return &TableIndexes{
		pti:   map[string]*index.Index{},
		bt:    map[string]*certIndex{},
		rowOf: map[*core.Tuple]int64{},
		tupOf: map[int64]*core.Tuple{},
	}
}

// rowid returns the tuple's stable identity, assigning one on first sight.
func (ti *TableIndexes) rowid(tup *core.Tuple) int64 {
	if id, ok := ti.rowOf[tup]; ok {
		return id
	}
	ti.next++
	ti.rowOf[tup] = ti.next
	ti.tupOf[ti.next] = tup
	return ti.next
}

// ridOf packs a rowid into the btree's payload type.
func ridOf(rowid int64) storage.RID {
	return storage.RID{Page: storage.PageID(rowid >> 16), Slot: uint16(rowid & 0xffff)}
}

func rowidOf(r storage.RID) int64 { return int64(r.Page)<<16 | int64(r.Slot) }

// Has reports whether any index exists on the column.
func (ti *TableIndexes) Has(col string) bool {
	if ti == nil {
		return false
	}
	_, p := ti.pti[col]
	_, b := ti.bt[col]
	return p || b
}

// namesIndexed reports whether any conjunct compares an indexed column to a
// literal or thresholds an indexed pdf column.
func (ti *TableIndexes) namesIndexed(conj []Conjunct) bool {
	for _, c := range conj {
		if c.Col != "" && ti.Has(c.Col) {
			return true
		}
		for _, pc := range c.ProbCols {
			if ti.Has(pc) {
				return true
			}
		}
	}
	return false
}

// Cols returns the indexed column names with their access-path kind
// ("pti" or "btree"), for DESCRIBE and manifest persistence.
func (ti *TableIndexes) Cols() map[string]string {
	out := map[string]string{}
	if ti == nil {
		return out
	}
	for c := range ti.pti {
		out[c] = "pti"
	}
	for c := range ti.bt {
		out[c] = "btree"
	}
	return out
}

// Create builds an index over the column from the table's current tuples:
// a PTI when the column is uncertain, a btree when certain.
func (ti *TableIndexes) Create(t *core.Table, col string) error {
	c, ok := t.Schema().Lookup(col)
	if !ok {
		return fmt.Errorf("plan: no column %q in %s", col, t.Name)
	}
	if ti.Has(col) {
		return fmt.Errorf("plan: column %q is already indexed", col)
	}
	if len(ti.rowOf) == 0 {
		// The first index names every tuple: size the rowid maps once.
		ti.rowOf = make(map[*core.Tuple]int64, t.Len())
		ti.tupOf = make(map[int64]*core.Tuple, t.Len())
	}
	if c.Uncertain {
		items := make([]index.Item, 0, t.Len())
		for _, tup := range t.Tuples() {
			d, err := t.DistOf(tup, col)
			if err != nil {
				return err
			}
			items = append(items, index.Item{RID: ti.rowid(tup), Dist: d})
		}
		ti.pti[col] = index.Build(items)
		return nil
	}
	ci := &certIndex{keyOf: make(map[int64]int64, t.Len()), dead: map[int64]bool{}}
	loc := t.Locators()[t.Schema().Index(col)]
	for _, tup := range t.Tuples() {
		rowid := ti.rowid(tup)
		if v := loc.Value(tup); v.Kind == core.IntValue {
			ci.keyOf[rowid] = v.I
		} else {
			ci.spill = append(ci.spill, rowid) // rowids only grow: stays ascending
		}
	}
	if err := ci.rebuild(); err != nil {
		return err
	}
	ti.bt[col] = ci
	return nil
}

// NoteInsert maintains every index for a freshly inserted tuple.
func (ti *TableIndexes) NoteInsert(t *core.Table, tup *core.Tuple) error {
	if ti == nil || (len(ti.pti) == 0 && len(ti.bt) == 0) {
		return nil
	}
	id := ti.rowid(tup)
	for col, ix := range ti.pti {
		d, err := t.DistOf(tup, col)
		if err != nil {
			return err
		}
		ix.Insert(index.Item{RID: id, Dist: d})
	}
	for col, ci := range ti.bt {
		v, _ := t.Value(tup, col)
		if err := ci.insert(id, v); err != nil {
			return err
		}
	}
	return nil
}

// NoteDelete removes a deleted tuple from every index and forgets its rowid.
func (ti *TableIndexes) NoteDelete(tup *core.Tuple) error {
	if ti == nil {
		return nil
	}
	id, ok := ti.rowOf[tup]
	if !ok {
		return nil
	}
	delete(ti.rowOf, tup)
	delete(ti.tupOf, id)
	for _, ix := range ti.pti {
		ix.Delete(id)
	}
	for _, ci := range ti.bt {
		if err := ci.delete(id); err != nil {
			return err
		}
	}
	return nil
}

// ProbePTI runs a range-threshold probe against the column's PTI: the
// returned ascending list holds every rowid whose mass inside [lo, hi] is
// >= p.
func (ti *TableIndexes) ProbePTI(col string, lo, hi, p float64) ([]int64, index.Stats, bool) {
	ix, ok := ti.pti[col]
	if !ok {
		return nil, index.Stats{}, false
	}
	rids, st := ix.RangeThreshold(lo, hi, p)
	return rids, st, true
}

// ProbeBTree runs one comparison probe against the column's btree: the
// candidates of ProbeKeys over the keys that can satisfy "col op v". It
// reports false for a literal no key range stands for (text, say).
func (ti *TableIndexes) ProbeBTree(col string, op region.Op, v core.Value) ([]int64, bool) {
	lo, hi, ok := keyBounds(op, v)
	if !ok {
		return nil, false
	}
	return ti.ProbeKeys(col, lo, hi)
}

// ProbeKeys scans the column's btree over the inclusive key range [lo, hi]
// (empty when lo > hi) and returns, in ascending rowid order, a candidate
// superset of the rows whose value lies in it: the live tree entries plus
// every spilled row. The caller re-verifies with the residual predicate.
func (ti *TableIndexes) ProbeKeys(col string, lo, hi int64) ([]int64, bool) {
	ci, ok := ti.bt[col]
	if !ok {
		return nil, false
	}
	cand, err := ci.probe(lo, hi)
	return cand, err == nil
}

// Restrict maps an ascending candidate list to its tuples, which by the
// rowid-order invariant come out in base-table order. It costs one lookup
// per candidate and never walks the table, so the table argument goes
// unread; it stays because benchmark/surface.go compiles against this
// signature.
func (ti *TableIndexes) Restrict(_ *core.Table, cand []int64) []*core.Tuple {
	out := make([]*core.Tuple, len(cand))
	for i, id := range cand {
		out[i] = ti.tupOf[id]
	}
	return out
}

// Check verifies the rowid bookkeeping against the indexed table: rowOf and
// tupOf are inverses covering exactly t's tuples, rowids ascend in
// t.Tuples() order, and every index holds one live entry per tuple.
func (ti *TableIndexes) Check(t *core.Table) error {
	if len(ti.pti) == 0 && len(ti.bt) == 0 {
		return nil
	}
	if len(ti.rowOf) != t.Len() || len(ti.tupOf) != t.Len() {
		return fmt.Errorf("plan: %d rowids and %d inverse entries for %d tuples", len(ti.rowOf), len(ti.tupOf), t.Len())
	}
	prev := int64(0)
	for i, tup := range t.Tuples() {
		id, ok := ti.rowOf[tup]
		if !ok || ti.tupOf[id] != tup {
			return fmt.Errorf("plan: tuple %d: rowid %d (known %v) does not map back to it", i, id, ok)
		}
		if id <= prev {
			return fmt.Errorf("plan: tuple %d: rowid %d after %d breaks base order", i, id, prev)
		}
		prev = id
	}
	for col, ix := range ti.pti {
		if ix.Len() != t.Len() {
			return fmt.Errorf("plan: pti(%s) holds %d entries for %d tuples", col, ix.Len(), t.Len())
		}
	}
	for col, ci := range ti.bt {
		if n := len(ci.keyOf) - len(ci.dead) + len(ci.spill); n != t.Len() {
			return fmt.Errorf("plan: btree(%s) holds %d entries for %d tuples", col, n, t.Len())
		}
		if !slices.IsSorted(ci.spill) {
			return fmt.Errorf("plan: btree(%s) spill list is not ascending", col)
		}
	}
	return nil
}

// Rebuild reconstructs every index from the table's current tuples —
// recovery installs index definitions this way after a restart.
func (ti *TableIndexes) Rebuild(t *core.Table) error {
	cols := ti.Cols()
	fresh := NewTableIndexes()
	for col := range cols {
		if err := fresh.Create(t, col); err != nil {
			return err
		}
	}
	*ti = *fresh
	return nil
}

func (ci *certIndex) insert(rowid int64, v core.Value) error {
	delete(ci.dead, rowid)
	if v.Kind != core.IntValue {
		ci.spill = append(ci.spill, rowid) // rowids only grow: stays ascending
		return nil
	}
	ci.keyOf[rowid] = v.I
	return ci.tree.Insert(v.I, ridOf(rowid))
}

func (ci *certIndex) delete(rowid int64) error {
	if i, ok := slices.BinarySearch(ci.spill, rowid); ok {
		ci.spill = slices.Delete(ci.spill, i, i+1)
		return nil
	}
	if _, ok := ci.keyOf[rowid]; !ok {
		return nil
	}
	ci.dead[rowid] = true
	if len(ci.dead) >= 32 && 4*len(ci.dead) >= len(ci.keyOf) {
		return ci.compact()
	}
	return nil
}

// compact rebuilds the tree without tombstoned entries.
func (ci *certIndex) compact() error {
	live := make(map[int64]int64, len(ci.keyOf)-len(ci.dead))
	for rowid, key := range ci.keyOf {
		if !ci.dead[rowid] {
			live[rowid] = key
		}
	}
	ci.keyOf = live
	ci.dead = map[int64]bool{}
	return ci.rebuild()
}

// rebuild lays a fresh tree out over keyOf, bottom-up from its entries
// sorted by key (rowid within a key).
func (ci *certIndex) rebuild() error {
	type entry struct{ key, rowid int64 }
	es := make([]entry, 0, len(ci.keyOf))
	for rowid, key := range ci.keyOf {
		es = append(es, entry{key, rowid})
	}
	slices.SortFunc(es, func(a, b entry) int {
		switch {
		case a.key < b.key || a.key == b.key && a.rowid < b.rowid:
			return -1
		case a == b:
			return 0
		}
		return 1
	})
	keys := make([]int64, len(es))
	rids := make([]storage.RID, len(es))
	for i, e := range es {
		keys[i], rids[i] = e.key, ridOf(e.rowid)
	}
	tree, err := btree.Build(storage.NewPool(storage.NewMemPager(), 1024), keys, rids)
	if err != nil {
		return err
	}
	ci.tree = tree
	return nil
}

// probe returns the ascending candidate rowids for the inclusive key range
// [lo, hi]: live tree entries in range, merged with the spill list.
func (ci *certIndex) probe(lo, hi int64) ([]int64, error) {
	var hits []int64
	if lo <= hi {
		err := ci.tree.Range(lo, hi, func(_ int64, rid storage.RID) error {
			if id := rowidOf(rid); !ci.dead[id] {
				hits = append(hits, id)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		slices.Sort(hits) // the tree emits key order
	}
	return mergeAsc(hits, ci.spill), nil
}

// mergeAsc merges two ascending rowid lists into a fresh ascending list (a
// itself when b is empty, so b is never aliased).
func mergeAsc(a, b []int64) []int64 {
	if len(b) == 0 {
		return a
	}
	out := make([]int64, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if a[0] < b[0] {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// keyBounds maps "col op v" to the inclusive integer key range [lo, hi]
// holding every integer that satisfies it; lo > hi means none does (a
// non-integral equality: only spilled rows can match). It reports false for
// a literal with no such range: non-numeric, or at a magnitude where the
// engine's float64 comparison no longer tells neighbouring integers apart.
func keyBounds(op region.Op, v core.Value) (lo, hi int64, ok bool) {
	f, numeric := v.AsFloat()
	if !numeric || !(math.Abs(f) < 1<<53) {
		return 0, 0, false
	}
	lo, hi = math.MinInt64, math.MaxInt64
	switch op {
	case region.EQ:
		lo, hi = int64(math.Ceil(f)), int64(math.Floor(f))
	case region.LT:
		hi = int64(math.Ceil(f)) - 1
	case region.LE:
		hi = int64(math.Floor(f))
	case region.GT:
		lo = int64(math.Floor(f)) + 1
	case region.GE:
		lo = int64(math.Ceil(f))
	default:
		return 0, 0, false
	}
	return lo, hi, true
}
