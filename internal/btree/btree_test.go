package btree

import (
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"probdb/internal/storage"
)

func memTree(t *testing.T) *Tree {
	t.Helper()
	tr, err := Create(storage.NewPool(storage.NewMemPager(), 64))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func rid(n int) storage.RID {
	return storage.RID{Page: storage.PageID(n / 100), Slot: uint16(n % 100)}
}

func TestInsertAndGet(t *testing.T) {
	tr := memTree(t)
	for i := 0; i < 100; i++ {
		if err := tr.Insert(int64(i*3), rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		got, err := tr.Get(int64(i * 3))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0] != rid(i) {
			t.Fatalf("Get(%d) = %v", i*3, got)
		}
	}
	if got, _ := tr.Get(1); len(got) != 0 {
		t.Errorf("missing key returned %v", got)
	}
}

func TestDuplicateKeys(t *testing.T) {
	tr := memTree(t)
	for i := 0; i < 10; i++ {
		if err := tr.Insert(42, rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := tr.Get(42)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("duplicates = %d", len(got))
	}
}

// shrinkNodes temporarily reduces node capacities so small tests exercise
// deep trees.
func shrinkNodes(t *testing.T, leaf, inner int) {
	t.Helper()
	oldLeaf, oldInner := maxLeafEntries, maxInnerKeys
	maxLeafEntries, maxInnerKeys = leaf, inner
	t.Cleanup(func() { maxLeafEntries, maxInnerKeys = oldLeaf, oldInner })
}

func TestSplitsAndOrder(t *testing.T) {
	shrinkNodes(t, 16, 8) // 50k entries force a tree several levels deep
	tr := memTree(t)
	const n = 50_000
	perm := rand.New(rand.NewSource(7)).Perm(n)
	for _, k := range perm {
		if err := tr.Insert(int64(k), rid(k)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Height() < 3 {
		t.Errorf("height = %d, expected a multi-level tree", tr.Height())
	}
	count, err := tr.Len()
	if err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("Len = %d, want %d", count, n)
	}
	// Full scan returns sorted keys.
	prev := int64(-1)
	seen := 0
	err = tr.Range(minInt64, maxInt64, func(k int64, r storage.RID) error {
		if k <= prev {
			t.Fatalf("out of order: %d after %d", k, prev)
		}
		if r != rid(int(k)) {
			t.Fatalf("key %d has rid %v", k, r)
		}
		prev = k
		seen++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != n {
		t.Fatalf("scanned %d", seen)
	}
	// Point lookups after heavy splitting.
	for _, k := range []int{0, 1, n / 2, n - 1} {
		got, err := tr.Get(int64(k))
		if err != nil || len(got) != 1 || got[0] != rid(k) {
			t.Fatalf("Get(%d) = %v, %v", k, got, err)
		}
	}
}

func TestRangeScan(t *testing.T) {
	tr := memTree(t)
	for i := 0; i < 2000; i++ {
		if err := tr.Insert(int64(i), rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	var keys []int64
	err := tr.Range(500, 600, func(k int64, _ storage.RID) error {
		keys = append(keys, k)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 101 || keys[0] != 500 || keys[100] != 600 {
		t.Fatalf("range = %d keys [%d..%d]", len(keys), keys[0], keys[len(keys)-1])
	}
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Error("range keys unsorted")
	}
	// Empty range.
	n := 0
	tr.Range(10_000, 20_000, func(int64, storage.RID) error { n++; return nil })
	if n != 0 {
		t.Errorf("empty range returned %d", n)
	}
}

func TestRangeAbortsOnError(t *testing.T) {
	tr := memTree(t)
	for i := 0; i < 100; i++ {
		tr.Insert(int64(i), rid(i))
	}
	n := 0
	err := tr.Range(0, 99, func(int64, storage.RID) error {
		n++
		if n == 5 {
			return errStop
		}
		return nil
	})
	if err != errStop || n != 5 {
		t.Errorf("abort: n=%d err=%v", n, err)
	}
}

var errStop = &stopErr{}

type stopErr struct{}

func (*stopErr) Error() string { return "stop" }

func TestNegativeKeys(t *testing.T) {
	tr := memTree(t)
	for _, k := range []int64{-5, -1, 0, 1, 5, minInt64 + 1, maxInt64 - 1} {
		if err := tr.Insert(k, rid(int(k&0xff))); err != nil {
			t.Fatal(err)
		}
	}
	var keys []int64
	tr.Range(minInt64, maxInt64, func(k int64, _ storage.RID) error {
		keys = append(keys, k)
		return nil
	})
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Errorf("negative keys unsorted: %v", keys)
	}
}

func TestPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.pages")
	fp, err := storage.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pool := storage.NewPool(fp, 32)
	tr, err := Create(pool)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		if err := tr.Insert(int64(i), rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	fp.Close()

	fp2, err := storage.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fp2.Close()
	tr2, err := Open(storage.NewPool(fp2, 32))
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Height() != tr.Height() {
		t.Errorf("height %d != %d", tr2.Height(), tr.Height())
	}
	got, err := tr2.Get(4321)
	if err != nil || len(got) != 1 || got[0] != rid(4321) {
		t.Fatalf("Get after reopen = %v, %v", got, err)
	}
	n, _ := tr2.Len()
	if n != 5000 {
		t.Errorf("Len after reopen = %d", n)
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	pool := storage.NewPool(storage.NewMemPager(), 8)
	id, pg, err := pool.PinNew()
	if err != nil {
		t.Fatal(err)
	}
	pg.Reset()
	pool.Unpin(id, true)
	if _, err := Open(pool); err == nil {
		t.Error("garbage meta page should fail Open")
	}
}

func TestCreateRequiresEmptyPager(t *testing.T) {
	pool := storage.NewPool(storage.NewMemPager(), 8)
	if _, err := Create(pool); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(pool); err == nil {
		t.Error("second Create on the same pager should fail")
	}
}

func TestRandomizedAgainstSortedMap(t *testing.T) {
	shrinkNodes(t, 16, 8)
	r := rand.New(rand.NewSource(99))
	tr := memTree(t)
	ref := map[int64][]storage.RID{}
	for i := 0; i < 20_000; i++ {
		k := int64(r.Intn(3000)) // plenty of duplicates
		v := rid(i)
		if err := tr.Insert(k, v); err != nil {
			t.Fatal(err)
		}
		ref[k] = append(ref[k], v)
	}
	for k, want := range ref {
		got, err := tr.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("key %d: %d vs %d rids", k, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("key %d rid %d: %v vs %v (insertion order lost)", k, i, got[i], want[i])
			}
		}
	}
}

// TestBuildMatchesInserts: a tree laid out bottom-up answers every Range —
// keys in order, duplicates in their given order — as the tree that
// inserting the same sorted entries builds, and keeps doing so as both take
// further inserts (splits of full leaves included), at zero, one and two
// internal levels.
func TestBuildMatchesInserts(t *testing.T) {
	type kv struct {
		k int64
		r storage.RID
	}
	scan := func(tr *Tree, lo, hi int64) []kv {
		var out []kv
		if err := tr.Range(lo, hi, func(k int64, r storage.RID) error {
			out = append(out, kv{k, r})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	same := func(a, b []kv) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for _, n := range []int{0, 1, maxLeafEntries, maxLeafEntries + 1, 20 * maxLeafEntries, (maxInnerKeys + 2) * maxLeafEntries} {
		r := rand.New(rand.NewSource(int64(n)))
		keys := make([]int64, n)
		rids := make([]storage.RID, n)
		for i := range keys {
			keys[i] = int64(r.Intn(n/3+1) - n/6) // duplicates, negatives
			rids[i] = rid(i)
		}
		sort.SliceStable(keys, func(i, j int) bool { return keys[i] < keys[j] })
		built, err := Build(storage.NewPool(storage.NewMemPager(), 64), keys, rids)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]kv, n)
		for i := range keys {
			want[i] = kv{keys[i], rids[i]}
		}
		if got := scan(built, minInt64, maxInt64); !same(got, want) {
			t.Fatalf("n=%d: Build holds %d entries out of order or lost", n, len(got))
		}
		if n > 50*maxLeafEntries {
			if built.Height() != 2 {
				t.Fatalf("n=%d: height %d, want 2", n, built.Height())
			}
			continue // the insert-built twin of the two-level tree is too slow to grow
		}
		inserted := memTree(t)
		for i := range keys {
			if err := inserted.Insert(keys[i], rids[i]); err != nil {
				t.Fatal(err)
			}
		}
		for round := 0; round < 2; round++ {
			for q := 0; q < 50; q++ {
				lo := int64(r.Intn(n/3+3) - n/6 - 1)
				hi := lo + int64(r.Intn(n/10+2))
				if a, b := scan(built, lo, hi), scan(inserted, lo, hi); !same(a, b) {
					t.Fatalf("n=%d round %d: Range(%d, %d) gives %d entries built, %d inserted", n, round, lo, hi, len(a), len(b))
				}
			}
			for i := 0; i < n/2+5; i++ {
				k, rd := int64(r.Intn(n/3+1)-n/6), rid(n+i)
				if err := built.Insert(k, rd); err != nil {
					t.Fatal(err)
				}
				if err := inserted.Insert(k, rd); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}
