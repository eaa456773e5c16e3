// Package btree is a disk-backed B+-tree over the storage engine's buffer
// pool: the access path for certain (precise) keys, complementing the
// probabilistic threshold index of internal/index. Keys are int64, values
// are heap RIDs; duplicate keys are allowed. The tree supports insertion
// with node splits and ordered range scans; deletion is by rebuild, which
// matches the append-mostly workloads of the benchmarks (and of the paper's
// sensor-feed setting).
package btree

import (
	"encoding/binary"
	"fmt"

	"probdb/internal/storage"
)

// Page layout. Page 0 is the meta page; all other pages are nodes.
//
//	meta:     magic uint32 | root uint32 | height uint16
//	node:     kind byte (0 leaf, 1 internal) | n uint16 | payload
//	leaf:     next uint32 | n × (key int64, page uint32, slot uint16)
//	internal: n × (key int64) | (n+1) × (child uint32)
const (
	magic = 0xB7EE0001

	metaRootOff   = 4
	metaHeightOff = 8

	nodeKindOff  = 0
	nodeCountOff = 1
	leafNextOff  = 3
	leafHdrSize  = 7
	leafEntry    = 14 // key 8 + page 4 + slot 2
	innerHdrSize = 3
	innerKey     = 8
	innerChild   = 4
)

// maxLeafEntries and maxInnerKeys are the node capacities for 8 KiB pages.
var (
	maxLeafEntries = (storage.PageSize - leafHdrSize) / leafEntry
	maxInnerKeys   = (storage.PageSize - innerHdrSize - innerChild) / (innerKey + innerChild)
)

// Tree is a B+-tree handle. It is not safe for concurrent writers.
type Tree struct {
	pool *storage.Pool
	root storage.PageID
	// height is the number of internal levels above the leaves (0 = the
	// root is a leaf).
	height int
}

// Create initializes a new tree in an empty pager.
func Create(pool *storage.Pool) (*Tree, error) {
	if pool == nil {
		return nil, fmt.Errorf("btree: nil pool")
	}
	metaID, meta, err := pool.PinNew()
	if err != nil {
		return nil, err
	}
	if metaID != 0 {
		pool.Unpin(metaID, false)
		return nil, fmt.Errorf("btree: Create requires an empty pager (meta landed on page %d)", metaID)
	}
	rootID, root, err := pool.PinNew()
	if err != nil {
		pool.Unpin(metaID, false)
		return nil, err
	}
	initLeaf(root)
	binary.LittleEndian.PutUint32(meta.Data[0:4], magic)
	binary.LittleEndian.PutUint32(meta.Data[metaRootOff:metaRootOff+4], uint32(rootID))
	binary.LittleEndian.PutUint16(meta.Data[metaHeightOff:metaHeightOff+2], 0)
	if err := pool.Unpin(rootID, true); err != nil {
		return nil, err
	}
	if err := pool.Unpin(metaID, true); err != nil {
		return nil, err
	}
	return &Tree{pool: pool, root: rootID}, nil
}

// Build creates a tree in an empty pager over the entries keys[i]→rids[i],
// which must be sorted by key, duplicates in the order Range is to return
// them. It lays the tree out bottom-up — full leaves in key order, then each
// internal level over the one below — instead of descending from the root
// once per entry, and Range and Insert answer on it as on a tree built by
// inserting the same entries in order.
func Build(pool *storage.Pool, keys []int64, rids []storage.RID) (*Tree, error) {
	t, err := Create(pool)
	if err != nil || len(keys) == 0 {
		return t, err
	}
	type node struct {
		id  storage.PageID
		min int64
	}
	var level []node
	var prev *storage.Page // the previous leaf, pinned until it links to this one
	for lo := 0; lo < len(keys); lo += maxLeafEntries {
		var id storage.PageID
		var p *storage.Page
		if lo == 0 {
			id = t.root
			p, err = pool.Pin(id)
		} else {
			id, p, err = pool.PinNew()
		}
		if err != nil {
			return nil, err
		}
		initLeaf(p)
		hi := min(lo+maxLeafEntries, len(keys))
		for i := lo; i < hi; i++ {
			setLeafEntry(p, i-lo, keys[i], rids[i])
		}
		setNodeCount(p, hi-lo)
		if prev != nil {
			setLeafNext(prev, id)
			if err := pool.Unpin(level[len(level)-1].id, true); err != nil {
				return nil, err
			}
		}
		prev = p
		level = append(level, node{id, keys[lo]})
	}
	if err := pool.Unpin(level[len(level)-1].id, true); err != nil {
		return nil, err
	}
	for len(level) > 1 {
		var up []node
		for lo := 0; lo < len(level); lo += maxInnerKeys + 1 {
			id, p, err := pool.PinNew()
			if err != nil {
				return nil, err
			}
			initInner(p)
			hi := min(lo+maxInnerKeys+1, len(level))
			for i := lo; i < hi; i++ {
				setInnerChild(p, i-lo, level[i].id)
				if i > lo {
					setInnerKey(p, i-lo-1, level[i].min)
				}
			}
			setNodeCount(p, hi-lo-1)
			if err := pool.Unpin(id, true); err != nil {
				return nil, err
			}
			up = append(up, node{id, level[lo].min})
		}
		level = up
		t.height++
	}
	t.root = level[0].id
	return t, t.writeMeta()
}

// Open loads an existing tree from its pager.
func Open(pool *storage.Pool) (*Tree, error) {
	meta, err := pool.Pin(0)
	if err != nil {
		return nil, err
	}
	defer pool.Unpin(0, false)
	if binary.LittleEndian.Uint32(meta.Data[0:4]) != magic {
		return nil, fmt.Errorf("btree: bad magic (not a btree file)")
	}
	return &Tree{
		pool:   pool,
		root:   storage.PageID(binary.LittleEndian.Uint32(meta.Data[metaRootOff : metaRootOff+4])),
		height: int(binary.LittleEndian.Uint16(meta.Data[metaHeightOff : metaHeightOff+2])),
	}, nil
}

// Height returns the number of internal levels (0 when the root is a leaf).
func (t *Tree) Height() int { return t.height }

func initLeaf(p *storage.Page) {
	for i := range p.Data {
		p.Data[i] = 0
	}
	p.Data[nodeKindOff] = 0
	binary.LittleEndian.PutUint32(p.Data[leafNextOff:leafNextOff+4], 0)
}

func initInner(p *storage.Page) {
	for i := range p.Data {
		p.Data[i] = 0
	}
	p.Data[nodeKindOff] = 1
}

func nodeCount(p *storage.Page) int {
	return int(binary.LittleEndian.Uint16(p.Data[nodeCountOff : nodeCountOff+2]))
}

func setNodeCount(p *storage.Page, n int) {
	binary.LittleEndian.PutUint16(p.Data[nodeCountOff:nodeCountOff+2], uint16(n))
}

func leafKey(p *storage.Page, i int) int64 {
	off := leafHdrSize + i*leafEntry
	return int64(binary.LittleEndian.Uint64(p.Data[off : off+8]))
}

func leafRID(p *storage.Page, i int) storage.RID {
	off := leafHdrSize + i*leafEntry + 8
	return storage.RID{
		Page: storage.PageID(binary.LittleEndian.Uint32(p.Data[off : off+4])),
		Slot: binary.LittleEndian.Uint16(p.Data[off+4 : off+6]),
	}
}

func setLeafEntry(p *storage.Page, i int, key int64, rid storage.RID) {
	off := leafHdrSize + i*leafEntry
	binary.LittleEndian.PutUint64(p.Data[off:off+8], uint64(key))
	binary.LittleEndian.PutUint32(p.Data[off+8:off+12], uint32(rid.Page))
	binary.LittleEndian.PutUint16(p.Data[off+12:off+14], rid.Slot)
}

func leafNext(p *storage.Page) storage.PageID {
	return storage.PageID(binary.LittleEndian.Uint32(p.Data[leafNextOff : leafNextOff+4]))
}

func setLeafNext(p *storage.Page, id storage.PageID) {
	binary.LittleEndian.PutUint32(p.Data[leafNextOff:leafNextOff+4], uint32(id))
}

func innerKeyAt(p *storage.Page, i int) int64 {
	off := innerHdrSize + i*innerKey
	return int64(binary.LittleEndian.Uint64(p.Data[off : off+8]))
}

func setInnerKey(p *storage.Page, i int, key int64) {
	off := innerHdrSize + i*innerKey
	binary.LittleEndian.PutUint64(p.Data[off:off+8], uint64(key))
}

func innerChildAt(p *storage.Page, n, i int) storage.PageID {
	off := innerHdrSize + maxInnerKeys*innerKey + i*innerChild
	_ = n
	return storage.PageID(binary.LittleEndian.Uint32(p.Data[off : off+4]))
}

func setInnerChild(p *storage.Page, i int, id storage.PageID) {
	off := innerHdrSize + maxInnerKeys*innerKey + i*innerChild
	binary.LittleEndian.PutUint32(p.Data[off:off+4], uint32(id))
}

// Insert adds a key→rid entry. Duplicate keys are allowed and returned in
// insertion order within a key by Range.
func (t *Tree) Insert(key int64, rid storage.RID) error {
	promoted, newChild, err := t.insertInto(t.root, t.height, key, rid)
	if err != nil {
		return err
	}
	if newChild == 0 {
		return nil
	}
	// Root split: grow the tree by one level.
	newRootID, rootPage, err := t.pool.PinNew()
	if err != nil {
		return err
	}
	initInner(rootPage)
	setNodeCount(rootPage, 1)
	setInnerKey(rootPage, 0, promoted)
	setInnerChild(rootPage, 0, t.root)
	setInnerChild(rootPage, 1, newChild)
	if err := t.pool.Unpin(newRootID, true); err != nil {
		return err
	}
	t.root = newRootID
	t.height++
	return t.writeMeta()
}

func (t *Tree) writeMeta() error {
	meta, err := t.pool.Pin(0)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(meta.Data[metaRootOff:metaRootOff+4], uint32(t.root))
	binary.LittleEndian.PutUint16(meta.Data[metaHeightOff:metaHeightOff+2], uint16(t.height))
	return t.pool.Unpin(0, true)
}

// insertInto descends to the leaf, inserting and splitting upward. It
// returns the promoted separator key and the new right sibling's page ID
// when the node split (0 otherwise).
func (t *Tree) insertInto(id storage.PageID, level int, key int64, rid storage.RID) (int64, storage.PageID, error) {
	p, err := t.pool.Pin(id)
	if err != nil {
		return 0, 0, err
	}
	if level == 0 {
		sep, right, err2 := t.leafInsert(id, p, key, rid)
		return sep, right, err2
	}
	// Internal: find child.
	n := nodeCount(p)
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		if key < innerKeyAt(p, mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	child := innerChildAt(p, n, lo)
	if err := t.pool.Unpin(id, false); err != nil {
		return 0, 0, err
	}
	promoted, newChild, err := t.insertInto(child, level-1, key, rid)
	if err != nil || newChild == 0 {
		return 0, 0, err
	}
	// Insert separator into this node (re-pin: the recursive call may have
	// evicted it).
	p, err = t.pool.Pin(id)
	if err != nil {
		return 0, 0, err
	}
	return t.innerInsert(id, p, lo, promoted, newChild)
}

func (t *Tree) leafInsert(id storage.PageID, p *storage.Page, key int64, rid storage.RID) (int64, storage.PageID, error) {
	n := nodeCount(p)
	// Position: after all entries with key <= new key (stable duplicates).
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		if key < leafKey(p, mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if n < maxLeafEntries {
		for i := n; i > lo; i-- {
			setLeafEntry(p, i, leafKey(p, i-1), leafRID(p, i-1))
		}
		setLeafEntry(p, lo, key, rid)
		setNodeCount(p, n+1)
		return 0, 0, t.pool.Unpin(id, true)
	}
	// Split: left keeps the first half, right gets the rest.
	rightID, right, err := t.pool.PinNew()
	if err != nil {
		t.pool.Unpin(id, false)
		return 0, 0, err
	}
	initLeaf(right)
	half := n / 2
	// Gather all n+1 entries in order, then redistribute.
	type entry struct {
		k int64
		r storage.RID
	}
	all := make([]entry, 0, n+1)
	for i := 0; i < n; i++ {
		if i == lo {
			all = append(all, entry{key, rid})
		}
		all = append(all, entry{leafKey(p, i), leafRID(p, i)})
	}
	if lo == n {
		all = append(all, entry{key, rid})
	}
	for i := 0; i < half; i++ {
		setLeafEntry(p, i, all[i].k, all[i].r)
	}
	setNodeCount(p, half)
	for i := half; i < len(all); i++ {
		setLeafEntry(right, i-half, all[i].k, all[i].r)
	}
	setNodeCount(right, len(all)-half)
	setLeafNext(right, leafNext(p))
	setLeafNext(p, rightID)
	sep := all[half].k
	if err := t.pool.Unpin(rightID, true); err != nil {
		return 0, 0, err
	}
	return sep, rightID, t.pool.Unpin(id, true)
}

func (t *Tree) innerInsert(id storage.PageID, p *storage.Page, at int, key int64, child storage.PageID) (int64, storage.PageID, error) {
	n := nodeCount(p)
	if n < maxInnerKeys {
		for i := n; i > at; i-- {
			setInnerKey(p, i, innerKeyAt(p, i-1))
		}
		for i := n + 1; i > at+1; i-- {
			setInnerChild(p, i, innerChildAt(p, n, i-1))
		}
		setInnerKey(p, at, key)
		setInnerChild(p, at+1, child)
		setNodeCount(p, n+1)
		return 0, 0, t.pool.Unpin(id, true)
	}
	// Split internal node.
	keys := make([]int64, 0, n+1)
	children := make([]storage.PageID, 0, n+2)
	for i := 0; i <= n; i++ {
		children = append(children, innerChildAt(p, n, i))
	}
	for i := 0; i < n; i++ {
		keys = append(keys, innerKeyAt(p, i))
	}
	keys = append(keys[:at], append([]int64{key}, keys[at:]...)...)
	children = append(children[:at+1], append([]storage.PageID{child}, children[at+1:]...)...)

	mid := len(keys) / 2
	sep := keys[mid]
	rightID, right, err := t.pool.PinNew()
	if err != nil {
		t.pool.Unpin(id, false)
		return 0, 0, err
	}
	initInner(right)
	// Left: keys[:mid], children[:mid+1].
	for i := 0; i < mid; i++ {
		setInnerKey(p, i, keys[i])
	}
	for i := 0; i <= mid; i++ {
		setInnerChild(p, i, children[i])
	}
	setNodeCount(p, mid)
	// Right: keys[mid+1:], children[mid+1:].
	rKeys := keys[mid+1:]
	rChildren := children[mid+1:]
	for i, k := range rKeys {
		setInnerKey(right, i, k)
	}
	for i, c := range rChildren {
		setInnerChild(right, i, c)
	}
	setNodeCount(right, len(rKeys))
	if err := t.pool.Unpin(rightID, true); err != nil {
		return 0, 0, err
	}
	return sep, rightID, t.pool.Unpin(id, true)
}

// Get returns the RIDs stored under key, in insertion order.
func (t *Tree) Get(key int64) ([]storage.RID, error) {
	var out []storage.RID
	err := t.Range(key, key, func(_ int64, rid storage.RID) error {
		out = append(out, rid)
		return nil
	})
	return out, err
}

// Range calls fn for every entry with lo <= key <= hi in key order
// (duplicates in insertion order). Returning a non-nil error from fn aborts
// the scan with that error.
func (t *Tree) Range(lo, hi int64, fn func(key int64, rid storage.RID) error) error {
	id := t.root
	// Descend to the leftmost leaf that may contain lo. The comparison is a
	// lower bound (equality goes left): duplicates of a separator key may
	// straddle the split, and the leaf chain walk below picks up the rest.
	for level := t.height; level > 0; level-- {
		p, err := t.pool.Pin(id)
		if err != nil {
			return err
		}
		n := nodeCount(p)
		a, b := 0, n
		for a < b {
			mid := (a + b) / 2
			if lo <= innerKeyAt(p, mid) {
				b = mid
			} else {
				a = mid + 1
			}
		}
		next := innerChildAt(p, n, a)
		if err := t.pool.Unpin(id, false); err != nil {
			return err
		}
		id = next
	}
	// Walk the leaf chain, starting the first leaf at its first entry >= lo
	// (a binary search: a leaf holds hundreds of entries).
	for first := true; id != 0; first = false {
		p, err := t.pool.Pin(id)
		if err != nil {
			return err
		}
		n := nodeCount(p)
		i := 0
		for b := n; first && i < b; {
			if mid := (i + b) / 2; leafKey(p, mid) < lo {
				i = mid + 1
			} else {
				b = mid
			}
		}
		for ; i < n; i++ {
			k := leafKey(p, i)
			if k < lo {
				continue
			}
			if k > hi {
				t.pool.Unpin(id, false)
				return nil
			}
			if err := fn(k, leafRID(p, i)); err != nil {
				t.pool.Unpin(id, false)
				return err
			}
		}
		next := leafNext(p)
		if err := t.pool.Unpin(id, false); err != nil {
			return err
		}
		id = next
	}
	return nil
}

// Len returns the number of entries (by full scan — a statistic for tests
// and tools, not a hot path).
func (t *Tree) Len() (int, error) {
	n := 0
	err := t.Range(minInt64, maxInt64, func(int64, storage.RID) error {
		n++
		return nil
	})
	return n, err
}

const (
	minInt64 = -1 << 63
	maxInt64 = 1<<63 - 1
)
