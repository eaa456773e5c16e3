package core_test

import (
	"fmt"
	"strings"
	"testing"

	"probdb/internal/core"
	"probdb/internal/dist"
	"probdb/internal/region"
)

// projectedAndLoaded returns Π(c, y, a, x) of a six-column table — the
// columns reordered, the certain b and d skipped — and a table loaded with
// only those columns, in that order, holding the same values and pdfs, plus
// a third table to join them with. All three share one registry.
func projectedAndLoaded(t *testing.T, n int) (proj, loaded, other *core.Table) {
	t.Helper()
	reg := core.NewRegistry()
	full := core.MustTable("T", core.MustSchema(
		core.Column{Name: "a", Type: core.IntType},
		core.Column{Name: "b", Type: core.StringType},
		core.Column{Name: "x", Type: core.FloatType, Uncertain: true},
		core.Column{Name: "c", Type: core.FloatType},
		core.Column{Name: "y", Type: core.FloatType, Uncertain: true},
		core.Column{Name: "d", Type: core.IntType},
	), nil, reg)
	loaded = core.MustTable("T", core.MustSchema(
		core.Column{Name: "c", Type: core.FloatType},
		core.Column{Name: "y", Type: core.FloatType, Uncertain: true},
		core.Column{Name: "a", Type: core.IntType},
		core.Column{Name: "x", Type: core.FloatType, Uncertain: true},
	), nil, reg)
	for i := 0; i < n; i++ {
		x := dist.NewGaussian(float64(i%10), 2)
		var y dist.Dist = dist.NewUniform(0, float64(4+i%7))
		if i%3 == 1 {
			y = dist.NewDiscrete([]float64{1, 3, 6}, []float64{0.25, 0.25, 0.25}) // partial: Pr(exists) < 1
		}
		vals := map[string]core.Value{"a": core.Int(int64(i % 5)), "c": core.Float(float64(i%7) + 0.5)}
		if i%4 == 2 {
			delete(vals, "c") // NULL: a promotion filters the row
		}
		pdfs := []core.PDF{{Attrs: []string{"x"}, Dist: x}, {Attrs: []string{"y"}, Dist: y}}
		if err := loaded.Insert(core.Row{Values: vals, PDFs: pdfs}); err != nil {
			t.Fatal(err)
		}
		vals["b"], vals["d"] = core.Str(fmt.Sprintf("s%d", i)), core.Int(int64(1000+i))
		if err := full.Insert(core.Row{Values: vals, PDFs: pdfs}); err != nil {
			t.Fatal(err)
		}
	}
	proj, err := full.Project("c", "y", "a", "x")
	if err != nil {
		t.Fatal(err)
	}
	other = core.MustTable("O", core.MustSchema(
		core.Column{Name: "k", Type: core.IntType},
		core.Column{Name: "w", Type: core.FloatType, Uncertain: true},
	), nil, reg)
	for k := 0; k < 4; k++ {
		if err := other.Insert(core.Row{
			Values: map[string]core.Value{"k": core.Int(int64(k))},
			PDFs:   []core.PDF{{Attrs: []string{"w"}, Dist: dist.NewGaussian(float64(2*k), 1)}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return proj, loaded, other
}

// body is a table's rendering without its name, which records the
// operators it was derived by.
func body(tb *core.Table) string {
	_, r, _ := strings.Cut(tb.Render(), " ")
	return r
}

// TestProjectedOperatorsMatchLoaded: a projection shares its input's tuples
// and reads its columns through a certain-offset map, so every operator
// over it — selection with certain and uncertain atoms and a promoted
// certain column, equi-join on a projected key from either side, cross
// product, MergeDeps, Value — must render exactly as over a table loaded
// with only the projected columns, and every tuple they build records the
// product of its nodes' masses as its existence probability.
func TestProjectedOperatorsMatchLoaded(t *testing.T) {
	proj, loaded, other := projectedAndLoaded(t, 40)
	if len(proj.PhantomAttrs()) != 0 {
		t.Fatalf("projection keeps phantoms %v", proj.PhantomAttrs())
	}
	ops := []struct {
		name string
		run  func(*core.Table) (*core.Table, error)
	}{
		{"project", func(tb *core.Table) (*core.Table, error) { return tb, nil }},
		{"select", func(tb *core.Table) (*core.Table, error) {
			return tb.Select(
				core.Cmp(core.Col("a"), region.GE, core.LitI(1)),
				core.Cmp(core.Col("x"), region.LT, core.LitF(7)),
				core.Cmp(core.Col("c"), region.LT, core.Col("y")), // promotes c
			)
		}},
		{"select-certain", func(tb *core.Table) (*core.Table, error) {
			return tb.Select(core.Cmp(core.Col("c"), region.GT, core.Col("a")), core.Cmp(core.Col("y"), region.GE, core.LitF(2)))
		}},
		{"equijoin-left", func(tb *core.Table) (*core.Table, error) { return tb.EquiJoin(other, "a", "k") }},
		{"equijoin-right", func(tb *core.Table) (*core.Table, error) { return other.EquiJoin(tb, "k", "a") }},
		{"cross", func(tb *core.Table) (*core.Table, error) { return tb.CrossProduct(other) }},
		{"mergedeps", func(tb *core.Table) (*core.Table, error) { return tb.MergeDeps("y", "x") }},
		{"reproject", func(tb *core.Table) (*core.Table, error) { return tb.Project("a", "x", "c", "y") }},
	}
	for _, op := range ops {
		got, err := op.run(proj)
		if err != nil {
			t.Fatalf("%s over the projection: %v", op.name, err)
		}
		want, err := op.run(loaded)
		if err != nil {
			t.Fatalf("%s over the loaded table: %v", op.name, err)
		}
		if got.Len() == 0 {
			t.Fatalf("%s: empty result tests nothing", op.name)
		}
		if g, w := body(got), body(want); g != w {
			t.Fatalf("%s: projection renders\n%s\nloaded table renders\n%s", op.name, g, w)
		}
		for _, tb := range []*core.Table{got, want} {
			if err := core.CheckExistence(tb.Tuples()); err != nil {
				t.Fatalf("%s: %v", op.name, err)
			}
		}
	}
	for i, tup := range proj.Tuples() {
		for _, c := range []string{"c", "a"} {
			g, gok := proj.Value(tup, c)
			w, wok := loaded.Value(loaded.Tuples()[i], c)
			if gok != wok || g.Render() != w.Render() {
				t.Fatalf("row %d column %s: %s through the projection, %s loaded", i, c, g.Render(), w.Render())
			}
		}
		if _, ok := proj.Value(tup, "b"); ok {
			t.Fatalf("row %d: the projected-out column b still reads", i)
		}
	}
}
