package core

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"probdb/internal/colpdf"
	"probdb/internal/dist"
)

// NodeID identifies a base pdf in the registry. Base pdfs are the
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

// baseRecord is the registry entry for one base pdf: the original
// (unfloored, complete) distribution and a reference count. When the owning
// tuple is deleted while derived tuples still reference the record, it
// survives as a phantom node until the count reaches zero (§II-C).
type baseRecord struct {
	d       dist.Dist
	refs    int
	phantom bool // owning tuple deleted; record kept for derived tuples
}

// baseNode is everything Insert allocates for one pdf, as one block: the
// registry record, the tuple's node, the node's history (its own ID alone,
// Definition 2) and — for the common one-dimensional pdf — its variable map.
type baseNode struct {
	rec  baseRecord
	node PDFNode
	anc  [1]NodeID
	vars [1]varRef
}

// Registry is the database-wide store of base pdfs. All tables produced
// from one another share a registry so that histories remain meaningful
// across operations.
type Registry struct {
	mu   sync.Mutex
	next NodeID
	base map[NodeID]*baseRecord
	// colenc caches columnar encodings of base tables, keyed by table
	// identity + DML version (see columnar.go). Invalidated by version
	// bumps; sheddable under memory pressure.
	colenc *colpdf.Cache
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{next: 1, base: make(map[NodeID]*baseRecord), colenc: colpdf.NewCache()}
}

// ColCache returns the registry's columnar-encoding cache.
func (r *Registry) ColCache() *colpdf.Cache { return r.colenc }

// register records rec as a new base pdf and returns its ID. The initial
// reference count 1 belongs to the registering node.
func (r *Registry) register(rec *baseRecord) NodeID {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := r.next
	r.next++
	rec.refs = 1
	r.base[id] = rec
	return id
}

// registerNode registers d as a fresh base pdf and returns the node that
// owns it: pristine, its own only ancestor, one variable per dimension.
func (r *Registry) registerNode(d dist.Dist) *PDFNode {
	b := &baseNode{rec: baseRecord{d: d}}
	id := r.register(&b.rec)
	b.anc[0] = id
	vars := b.vars[:]
	if k := d.Dim(); k != 1 {
		vars = make([]varRef, k)
	}
	for dim := range vars {
		vars[dim] = varRef{base: id, dim: dim}
	}
	b.node = PDFNode{Dist: d, Anc: b.anc[:], vars: vars, self: id, pristine: true}
	return &b.node
}

// lookup returns the base distribution for id. It panics on unknown IDs — a
// registry/table mismatch is a programming error, not a data condition.
func (r *Registry) lookup(id NodeID) dist.Dist {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec, ok := r.base[id]
	if !ok {
		panic(fmt.Sprintf("core: unknown base pdf %d", id))
	}
	return rec.d
}

// retain adds one reference to every listed ancestor.
func (r *Registry) retain(ids AncestorSet) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, id := range ids {
		if rec, ok := r.base[id]; ok {
			rec.refs++
		}
	}
}

// release drops one reference from every listed ancestor, deleting records
// that reach zero references.
func (r *Registry) release(ids AncestorSet) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, id := range ids {
		rec, ok := r.base[id]
		if !ok {
			continue
		}
		rec.refs--
		if rec.refs <= 0 {
			delete(r.base, id)
		}
	}
}

// retainTuples adds one reference to every ancestor of every pdf node in
// tups, under a single lock acquisition. Freeze uses it so a snapshot can
// pin the base pdfs its tuples derive from against concurrent deletes.
func (r *Registry) retainTuples(tups []*Tuple) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, tup := range tups {
		for _, n := range tup.nodes {
			for _, id := range n.Anc {
				if rec, ok := r.base[id]; ok {
					rec.refs++
				}
			}
		}
	}
}

// releaseTuples drops the references retainTuples took, freeing records
// whose counts reach zero.
func (r *Registry) releaseTuples(tups []*Tuple) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, tup := range tups {
		for _, n := range tup.nodes {
			for _, id := range n.Anc {
				rec, ok := r.base[id]
				if !ok {
					continue
				}
				rec.refs--
				if rec.refs <= 0 {
					delete(r.base, id)
				}
			}
		}
	}
}

// Clone returns a private copy of the registry: the same node IDs mapped to
// fresh records (sharing the immutable attr slices and distributions, with
// independent reference counts), the same next-ID counter, and a fresh
// columnar cache. A transaction overlay clones the registry so its
// speculative inserts and deletes never touch the authoritative refcounts —
// discarding the overlay is then free.
func (r *Registry) Clone() *Registry {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := &Registry{next: r.next, base: make(map[NodeID]*baseRecord, len(r.base)), colenc: colpdf.NewCache()}
	for id, rec := range r.base {
		cp := *rec
		c.base[id] = &cp
	}
	return c
}

// markPhantom flags the record as belonging to a deleted base tuple. The
// record stays alive while derived tuples reference it.
func (r *Registry) markPhantom(id NodeID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if rec, ok := r.base[id]; ok {
		rec.phantom = true
	}
}

// Len returns the number of live base records (including phantoms).
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.base)
}

// PhantomCount returns the number of phantom records kept alive by derived
// references.
func (r *Registry) PhantomCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, rec := range r.base {
		if rec.phantom {
			n++
		}
	}
	return n
}
