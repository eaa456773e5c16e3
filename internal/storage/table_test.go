package storage

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"probdb/internal/core"
	"probdb/internal/dist"
	"probdb/internal/region"
	"probdb/internal/vfs"
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
		{
			// One pdf larger than the 8 KiB pages of the previous format.
			Values: map[string]core.Value{"id": core.Int(3), "tag": core.Str("wide")},
			PDFs: []core.PDF{
				{Attrs: []string{"a", "b"}, Dist: dist.NewDiscreteJoint(2, []dist.Point{
					{X: []float64{9, 1}, P: 1},
				})},
				{Attrs: []string{"x"}, Dist: widePDF(600)},
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

// widePDF is an n-point DISCRETE: 16 bytes a point on disk.
func widePDF(n int) dist.Dist {
	pts := make([]dist.Point, n)
	for i := range pts {
		pts[i] = dist.Point{X: []float64{float64(i)}, P: 1 / float64(n)}
	}
	return dist.NewDiscreteJoint(1, pts)
}

func encode(t *testing.T, tbl *core.Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeTable(&buf, tbl); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func decode(b []byte, reg *core.Registry) (*core.Table, error) {
	return readTable(bytes.NewReader(b), reg)
}

func TestSaveLoadRoundTrip(t *testing.T) {
	tbl := buildSample(t)
	raw := encode(t, tbl)
	if dist.EncodedSize(widePDF(600)) <= 8192 {
		t.Fatal("the wide pdf fits a page")
	}
	back, err := decode(raw, nil)
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
	if again := encode(t, back); !bytes.Equal(again, raw) {
		t.Error("a loaded table re-encodes to different bytes")
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
	path := filepath.Join(t.TempDir(), "sample.snap")
	if err := SaveTable(vfs.OS, path, buildSample(t)); err != nil {
		t.Fatal(err)
	}
	back, err := LoadTable(vfs.OS, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 3 {
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
	if err := writeTable(io.Discard, proj); err == nil {
		t.Error("saving a table with phantom attributes should fail")
	}
}

// TestSaveReplacesExistingFile: SaveTable truncates what was at its path,
// so a shorter snapshot never inherits the old file's tail.
func TestSaveReplacesExistingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.snap")
	if err := os.WriteFile(path, bytes.Repeat([]byte{0xee}, 1<<16), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := SaveTable(vfs.OS, path, buildSample(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTable(vfs.OS, path, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLoadErrors(t *testing.T) {
	raw := encode(t, buildSample(t))
	for name, b := range map[string][]byte{
		"empty":          nil,
		"bad magic":      append([]byte("probsnp0"), raw[8:]...),
		"no end record":  raw[:len(raw)-10],
		"trailing bytes": append(append([]byte(nil), raw...), 0),
		"schema only":    raw[:8+8+len(encodeSchema(buildSample(t)))+1],
	} {
		if _, err := decode(b, nil); !errors.Is(err, ErrCorruptSnapshot) {
			t.Errorf("%s: %v, want ErrCorruptSnapshot", name, err)
		}
	}
}

func TestLoadSharesRegistry(t *testing.T) {
	reg := core.NewRegistry()
	a, err := decode(encode(t, buildSample(t)), reg)
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
