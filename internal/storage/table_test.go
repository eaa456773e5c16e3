package storage

import (
	"math"
	"path/filepath"
	"testing"

	"probdb/internal/core"
	"probdb/internal/dist"
	"probdb/internal/region"
)

func buildSample(t *testing.T) *core.Table {
	t.Helper()
	schema := core.MustSchema(
		core.Column{Name: "id", Type: core.IntType},
		core.Column{Name: "tag", Type: core.StringType},
		core.Column{Name: "ok", Type: core.BoolType},
		core.Column{Name: "w", Type: core.FloatType},
		core.Column{Name: "x", Type: core.FloatType, Uncertain: true},
		core.Column{Name: "a", Type: core.IntType, Uncertain: true},
		core.Column{Name: "b", Type: core.IntType, Uncertain: true},
	)
	tbl := core.MustTable("Sample", schema, [][]string{{"a", "b"}}, nil)
	rows := []core.Row{
		{
			Values: map[string]core.Value{
				"id": core.Int(1), "tag": core.Str("first"), "ok": core.Bool(true), "w": core.Float(1.5),
			},
			PDFs: []core.PDF{
				{Attrs: []string{"a", "b"}, Dist: dist.NewDiscreteJoint(2, []dist.Point{
					{X: []float64{4, 5}, P: 0.9}, {X: []float64{2, 3}, P: 0.1},
				})},
				{Attrs: []string{"x"}, Dist: dist.NewGaussianVar(20, 5)},
			},
		},
		{
			Values: map[string]core.Value{"id": core.Int(2)}, // others NULL
			PDFs: []core.PDF{
				{Attrs: []string{"a", "b"}, Dist: dist.NewDiscreteJoint(2, []dist.Point{
					{X: []float64{7, 3}, P: 0.7},
				})},
				{Attrs: []string{"x"}, Dist: dist.ToHistogram(dist.NewGaussian(5, 1), 5)},
			},
		},
	}
	for _, r := range rows {
		if err := tbl.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func memHeap() *Heap {
	return NewHeap(NewPool(NewMemPager(), 16))
}

func TestSaveLoadRoundTrip(t *testing.T) {
	tbl := buildSample(t)
	heap := memHeap()
	if err := SaveTable(tbl, heap); err != nil {
		t.Fatal(err)
	}
	back, err := LoadTable(heap, nil)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "Sample" {
		t.Errorf("name = %q", back.Name)
	}
	if back.Schema().String() != tbl.Schema().String() {
		t.Errorf("schema %v != %v", back.Schema(), tbl.Schema())
	}
	if back.Len() != tbl.Len() {
		t.Fatalf("tuples %d != %d", back.Len(), tbl.Len())
	}
	for i, tup := range back.Tuples() {
		src := tbl.Tuples()[i]
		for _, c := range tbl.Schema().Columns() {
			if c.Uncertain {
				d1, _ := back.DistOf(tup, c.Name)
				d2, _ := tbl.DistOf(src, c.Name)
				if d1.String() != d2.String() {
					t.Errorf("tuple %d col %s: %v != %v", i, c.Name, d1, d2)
				}
				continue
			}
			v1, _ := back.Value(tup, c.Name)
			v2, _ := tbl.Value(src, c.Name)
			if v1.Render() != v2.Render() {
				t.Errorf("tuple %d col %s: %v != %v", i, c.Name, v1.Render(), v2.Render())
			}
		}
		if math.Abs(back.ExistenceProb(tup)-tbl.ExistenceProb(src)) > 1e-12 {
			t.Errorf("tuple %d existence differs", i)
		}
	}
	// Loaded tables are usable base tables: operators work and histories
	// restart from fresh base pdfs.
	sel, err := back.Select(core.Cmp(core.Col("a"), region.LT, core.Col("b")))
	if err != nil {
		t.Fatal(err)
	}
	if sel.Len() != 1 {
		t.Errorf("select on loaded table: %d rows", sel.Len())
	}
}

func TestSaveLoadOnDisk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sample.pages")
	fp, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	heap := NewHeap(NewPool(fp, 8))
	tbl := buildSample(t)
	if err := SaveTable(tbl, heap); err != nil {
		t.Fatal(err)
	}
	if err := fp.Sync(); err != nil {
		t.Fatal(err)
	}
	fp.Close()

	fp2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fp2.Close()
	back, err := LoadTable(NewHeap(NewPool(fp2, 8)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Errorf("tuples = %d", back.Len())
	}
}

func TestSaveRejectsPhantoms(t *testing.T) {
	tbl := buildSample(t)
	sel, err := tbl.Select(core.Cmp(core.Col("a"), region.LT, core.Col("b")))
	if err != nil {
		t.Fatal(err)
	}
	proj, err := sel.Project("id", "a")
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveTable(proj, memHeap()); err == nil {
		t.Error("saving a table with phantom attributes should fail")
	}
}

func TestSaveRejectsNonEmptyHeap(t *testing.T) {
	heap := memHeap()
	if _, err := heap.Append([]byte("junk")); err != nil {
		t.Fatal(err)
	}
	if err := SaveTable(buildSample(t), heap); err == nil {
		t.Error("non-empty heap should be rejected")
	}
}

func TestLoadErrors(t *testing.T) {
	// Empty heap.
	if _, err := LoadTable(memHeap(), nil); err == nil {
		t.Error("empty heap should fail")
	}
	// Corrupted schema record.
	heap := memHeap()
	heap.Append([]byte{99})
	if _, err := LoadTable(heap, nil); err == nil {
		t.Error("bad version should fail")
	}
	// Truncated tuple record.
	heap2 := memHeap()
	tbl := buildSample(t)
	if err := SaveTable(tbl, heap2); err != nil {
		t.Fatal(err)
	}
	heap2.Append([]byte{1, 2}) // bogus extra tuple
	if _, err := LoadTable(heap2, nil); err == nil {
		t.Error("corrupt tuple record should fail")
	}
}

func TestLoadSharesRegistry(t *testing.T) {
	heap := memHeap()
	if err := SaveTable(buildSample(t), heap); err != nil {
		t.Fatal(err)
	}
	reg := core.NewRegistry()
	a, err := LoadTable(heap, reg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Registry() != reg {
		t.Error("registry not shared")
	}
	// Every loaded pdf is a base pdf of reg: its own only ancestor, with an
	// ID of its own.
	seen := map[core.NodeID]bool{}
	for _, tup := range a.Tuples() {
		for _, set := range a.DepSets() {
			n, err := a.NodeOf(tup, set[0])
			if err != nil {
				t.Fatal(err)
			}
			if len(n.Anc) != 1 || seen[n.Anc[0]] {
				t.Fatalf("loaded pdf has history %v", n.Anc)
			}
			seen[n.Anc[0]] = true
		}
	}
	if len(seen) == 0 {
		t.Error("loaded pdfs should be registered as bases")
	}
}
