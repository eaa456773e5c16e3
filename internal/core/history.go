package core

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"

	"probdb/internal/colpdf"
	"probdb/internal/dist"
)

// NodeID identifies a base pdf, minted by its registry. Base pdfs are the
// "top-level ancestors" of §II-C: every derived pdf points back at the base
// pdfs it came from.
type NodeID uint64

// AncestorSet is the history Λ of one pdf: the sorted set of base pdf IDs it
// derives from (Definition 2). For a freshly inserted pdf the set contains
// just the pdf's own ID.
type AncestorSet []NodeID

// Union merges two ancestor sets (Definition 2: a derived pdf's history is
// the union of its sources' histories).
func (a AncestorSet) Union(b AncestorSet) AncestorSet {
	if len(a)+len(b) == 0 {
		return nil
	}
	out := append(append(make(AncestorSet, 0, len(a)+len(b)), a...), b...)
	slices.Sort(out)
	return slices.Compact(out)
}

// Intersect returns the common ancestors of two sets.
func (a AncestorSet) Intersect(b AncestorSet) AncestorSet {
	var out AncestorSet
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// Dependent reports whether the two histories share an ancestor
// (Definition 3: historically dependent pdfs).
func (a AncestorSet) Dependent(b AncestorSet) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			return true
		}
	}
	return false
}

// Contains reports membership.
func (a AncestorSet) Contains(id NodeID) bool {
	i := sort.Search(len(a), func(i int) bool { return a[i] >= id })
	return i < len(a) && a[i] == id
}

// baseRecord is one base pdf: its identity in the history Λ and its
// original (unfloored, complete) distribution. Records are immutable. Every
// node carrying one of the pdf's variables points at its record, so a
// deleted tuple's record lives on as a phantom (§II-C) exactly while some
// derived tuple still reaches it, and the collector frees it after. Each
// record is an allocation of its own: the runtime never finalizes a block
// that points into itself, as a baseNode does, so only a separate record
// can be watched (WatchBase).
type baseRecord struct {
	id NodeID
	d  dist.Dist
}

// baseNode is the rest of what Insert allocates for one pdf, as one block:
// the tuple's node, its history (its own ID alone, Definition 2) and — for
// the common one-dimensional pdf — its variable map.
type baseNode struct {
	node PDFNode
	anc  [1]NodeID
	vars [1]varRef
}

// Registry mints the IDs of base pdfs and counts the columnar-encoding hits.
// All tables produced from one another share a registry so that histories
// remain meaningful across operations: IDs from one registry never collide.
type Registry struct {
	last atomic.Uint64
	// colenc counts how often a base table's batch encodings were found
	// built (columnar.go); the encodings live on the tables.
	colenc *colpdf.Cache
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{colenc: colpdf.NewCache()} }

// ColCache returns the registry's columnar-encoding hit/miss counters.
func (r *Registry) ColCache() *colpdf.Cache { return r.colenc }

// newBase returns a fresh base record for d.
func (r *Registry) newBase(d dist.Dist) *baseRecord {
	return &baseRecord{id: NodeID(r.last.Add(1)), d: d}
}

// registerNode registers d as a fresh base pdf and returns the node that
// owns it: pristine, its own only ancestor, one variable per dimension.
func (r *Registry) registerNode(d dist.Dist) *PDFNode {
	rec := r.newBase(d)
	b := &baseNode{anc: [1]NodeID{rec.id}}
	vars := b.vars[:]
	if k := d.Dim(); k != 1 {
		vars = make([]varRef, k)
	}
	for dim := range vars {
		vars[dim] = varRef{base: rec, dim: dim}
	}
	b.node = PDFNode{Dist: d, Anc: b.anc[:], vars: vars, pristine: true}
	return &b.node
}

// WatchBase arranges for fn to run once the base pdf behind the named
// uncertain column of tup is unreachable: its own tuple is gone and no
// derived tuple carries its variables any more. It is how tests observe the
// phantom rule; fn runs on the runtime's finalizer goroutine, after a
// collection. Watch each base pdf at most once.
func (t *Table) WatchBase(tup *Tuple, col string, fn func()) error {
	id := t.idOf(col)
	di := t.depOf(id)
	if id == 0 || di < 0 {
		return fmt.Errorf("core: %q is not an uncertain column of %s", col, t.Name)
	}
	rec := tup.nodes[di].vars[t.deps[di].dimOf(id)].base
	if rec == nil {
		return fmt.Errorf("core: column %q carries no base pdf", col)
	}
	runtime.SetFinalizer(rec, func(*baseRecord) { fn() })
	return nil
}
