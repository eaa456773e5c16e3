package core

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"probdb/internal/dist"
	"probdb/internal/region"
)

func TestInsertValidation(t *testing.T) {
	schema := MustSchema(
		Column{Name: "id", Type: IntType},
		Column{Name: "x", Type: FloatType, Uncertain: true},
	)
	tbl := MustTable("T", schema, nil, nil)
	cases := []Row{
		{Values: map[string]Value{"nope": Int(1)}},                                                                                // unknown column
		{Values: map[string]Value{"x": Float(1)}},                                                                                 // certain value for uncertain col
		{Values: map[string]Value{"id": Int(1)}},                                                                                  // missing pdf
		{PDFs: []PDF{{Attrs: []string{"y"}, Dist: dist.NewGaussian(0, 1)}}},                                                       // unknown dep set
		{PDFs: []PDF{{Attrs: []string{"x"}, Dist: nil}}},                                                                          // nil dist
		{PDFs: []PDF{{Attrs: []string{"x"}, Dist: dist.ProductOf(dist.NewGaussian(0, 1), dist.NewGaussian(0, 1))}}},               // dim mismatch
		{PDFs: []PDF{{Attrs: []string{"x"}, Dist: dist.NewGaussian(0, 1)}, {Attrs: []string{"x"}, Dist: dist.NewGaussian(0, 1)}}}, // double assign
	}
	for i, row := range cases {
		if err := tbl.Insert(row); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
	if tbl.Len() != 0 {
		t.Errorf("failed inserts must not add tuples, have %d", tbl.Len())
	}
}

// TestFailedInsertRegistersNothing: a row rejected for any reason mints no
// base pdf, even when the problem is found only after a valid pdf for
// another dependency set; a row that is inserted and then deleted leaves
// none of its base pdfs reachable.
func TestFailedInsertRegistersNothing(t *testing.T) {
	schema := MustSchema(
		Column{Name: "a", Type: FloatType, Uncertain: true},
		Column{Name: "b", Type: FloatType, Uncertain: true},
	)
	tbl := MustTable("T", schema, [][]string{{"a"}, {"b"}}, nil)
	a := PDF{Attrs: []string{"a"}, Dist: dist.NewGaussian(0, 1)}
	for name, row := range map[string]Row{
		"unassigned":     {PDFs: []PDF{a}},
		"assigned-twice": {PDFs: []PDF{a, a}},
		"unknown-set":    {PDFs: []PDF{a, {Attrs: []string{"zz"}, Dist: dist.NewGaussian(0, 1)}}},
		"nil-dist":       {PDFs: []PDF{a, {Attrs: []string{"b"}}}},
		"dims":           {PDFs: []PDF{a, {Attrs: []string{"b"}, Dist: dist.ProductOf(dist.NewGaussian(0, 1), dist.NewGaussian(0, 1))}}},
		"zero-mass":      {PDFs: []PDF{a, {Attrs: []string{"b"}, Dist: dist.NewDiscrete([]float64{1}, []float64{0})}}},
		"unknown-col":    {Values: map[string]Value{"nope": Int(1)}, PDFs: []PDF{a}},
	} {
		if err := tbl.Insert(row); err == nil {
			t.Errorf("%s: insert should fail", name)
		}
		if n := tbl.reg.last.Load(); n != 0 {
			t.Errorf("%s: failed insert registered %d base pdfs", name, n)
		}
	}
	// The positional form a loader uses checks the same, plus the layout.
	g := dist.NewGaussian(0, 1)
	for name, in := range map[string]struct {
		certain []Value
		pdfs    []dist.Dist
	}{
		"unassigned": {make([]Value, 2), []dist.Dist{g, nil}},
		"dims":       {make([]Value, 2), []dist.Dist{g, dist.ProductOf(g, g)}},
		"zero-mass":  {make([]Value, 2), []dist.Dist{g, dist.NewDiscrete([]float64{1}, []float64{0})}},
		"short":      {make([]Value, 2), []dist.Dist{g}},
		"value-at-a": {[]Value{Int(1), Null}, []dist.Dist{g, g}},
	} {
		if err := tbl.InsertValues(in.certain, in.pdfs); err == nil {
			t.Errorf("positional %s: insert should fail", name)
		}
		if n := tbl.reg.last.Load(); n != 0 {
			t.Errorf("positional %s: failed insert registered %d base pdfs", name, n)
		}
	}
	if err := tbl.Insert(Row{PDFs: []PDF{a, {Attrs: []string{"b"}, Dist: dist.NewGaussian(1, 1)}}}); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 1 || tbl.reg.last.Load() != 2 {
		t.Errorf("valid insert: %d tuples, %d base pdfs; want 1 and 2", tbl.Len(), tbl.reg.last.Load())
	}
	var f freed
	f.watch(t, tbl, tbl.Tuples()...)
	if _, err := tbl.Delete(tbl.Tuples()); err != nil {
		t.Fatal(err)
	}
	if n := f.after(2); n != 2 {
		t.Errorf("after DELETE: %d of the row's 2 base pdfs freed", n)
	}
}

// TestInsertRejectsZeroMass: a pdf with no mass describes a tuple that
// cannot exist, so Insert refuses it and names the columns it
// was for; any positive mass, however small, is a partial pdf and stays.
func TestInsertRejectsZeroMass(t *testing.T) {
	schema := MustSchema(
		Column{Name: "id", Type: IntType},
		Column{Name: "x", Type: FloatType, Uncertain: true},
		Column{Name: "y", Type: FloatType, Uncertain: true},
	)
	tbl := MustTable("T", schema, [][]string{{"x", "y"}}, nil)
	for _, d := range []dist.Dist{
		dist.NewDiscreteJoint(2, []dist.Point{{X: []float64{1, 2}, P: 0}}),
		dist.ProductOf(dist.NewGaussian(0, 1), dist.NewGaussian(0, 1)).Floor(0, region.Set{}),
	} {
		err := tbl.Insert(Row{PDFs: []PDF{{Attrs: []string{"x", "y"}, Dist: d}}})
		if err == nil || !strings.Contains(err.Error(), "[x y]") || !strings.Contains(err.Error(), "mass") {
			t.Errorf("%v: err = %v, want a zero-mass error naming [x y]", d, err)
		}
	}
	partial := dist.NewDiscreteJoint(2, []dist.Point{{X: []float64{1, 2}, P: 1e-300}})
	if err := tbl.Insert(Row{PDFs: []PDF{{Attrs: []string{"x", "y"}, Dist: partial}}}); err != nil {
		t.Fatalf("partial pdf: %v", err)
	}
	if tbl.Len() != 1 || tbl.reg.last.Load() != 1 {
		t.Errorf("%d tuples, %d base pdfs; want the partial row alone", tbl.Len(), tbl.reg.last.Load())
	}
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema([]Column{{Name: "", Type: IntType}}); err == nil {
		t.Error("empty name should fail")
	}
	if _, err := NewSchema([]Column{{Name: "a", Type: IntType}, {Name: "a", Type: IntType}}); err == nil {
		t.Error("duplicate name should fail")
	}
	if _, err := NewSchema([]Column{{Name: "a", Type: StringType, Uncertain: true}}); err == nil {
		t.Error("uncertain string column should fail")
	}
}

func TestTableDepValidation(t *testing.T) {
	schema := MustSchema(
		Column{Name: "c", Type: IntType},
		Column{Name: "x", Type: FloatType, Uncertain: true},
		Column{Name: "y", Type: FloatType, Uncertain: true},
	)
	cases := [][][]string{
		{{}},                // empty set
		{{"zz"}},            // unknown column
		{{"c"}},             // certain column in dep set
		{{"x"}, {"x", "y"}}, // column in two sets
	}
	for i, deps := range cases {
		if _, err := NewTable("T", schema, deps, nil); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
	// Unmentioned uncertain columns get singletons.
	tbl := MustTable("T", schema, [][]string{{"x"}}, nil)
	if got := len(tbl.DepSets()); got != 2 {
		t.Errorf("expected auto singleton for y, Δ = %v", tbl.DepSets())
	}
}

func TestProjectKeepsPhantomFloors(t *testing.T) {
	// After σ_{b>4}, projecting onto b keeps the (a,b) joint with a as a
	// phantom attribute; the marginal over b reflects the floor.
	tbl := fig3Table(t)
	sel, err := tbl.Select(Cmp(Col("b"), region.GT, LitI(4)))
	if err != nil {
		t.Fatal(err)
	}
	tb, err := sel.Project("b")
	if err != nil {
		t.Fatal(err)
	}
	if got := tb.Schema().Len(); got != 1 {
		t.Fatalf("visible columns = %d", got)
	}
	ph := tb.PhantomAttrs()
	if len(ph) != 1 || ph[0] != "a" {
		t.Errorf("phantom attrs = %v, want [a]", ph)
	}
	n, err := tb.NodeOf(tb.Tuples()[0], "b")
	if err != nil {
		t.Fatal(err)
	}
	if n.Dist.Dim() != 2 {
		t.Errorf("kept joint should stay 2-D, got %d-D", n.Dist.Dim())
	}
}

func TestProjectDropsCompleteInvisibleSets(t *testing.T) {
	tbl := sensorTable(t)
	p, err := tbl.Project("id")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.DepSets()) != 0 {
		t.Errorf("complete invisible pdfs should be dropped, Δ = %v", p.DepSets())
	}
	if p.Len() != 3 {
		t.Errorf("tuples = %d", p.Len())
	}
}

func TestProjectKeepsPartialInvisibleSets(t *testing.T) {
	// A floored pdf carries existence probability; projecting it away must
	// keep it as a fully phantom set.
	tbl := sensorTable(t)
	sel, err := tbl.Select(Cmp(Col("x"), region.LT, LitF(20)))
	if err != nil {
		t.Fatal(err)
	}
	p, err := sel.Project("id")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.DepSets()) != 1 {
		t.Fatalf("partial invisible set should be kept, Δ = %v", p.DepSets())
	}
	// Existence probability survives the projection.
	got := p.ExistenceProb(p.Tuples()[0])
	want := sel.ExistenceProb(sel.Tuples()[0])
	if !almostEqual(got, want, 1e-12) {
		t.Errorf("existence after project = %v, want %v", got, want)
	}
}

func TestProjectErrors(t *testing.T) {
	tbl := sensorTable(t)
	if _, err := tbl.Project("nope"); err == nil {
		t.Error("unknown column should fail")
	}
}

func TestProjectWithoutHistoryMarginalizes(t *testing.T) {
	tbl := fig3Table(t)
	tbl.SetTrackHistory(false)
	p, err := tbl.Project("a")
	if err != nil {
		t.Fatal(err)
	}
	n, err := p.NodeOf(p.Tuples()[0], "a")
	if err != nil {
		t.Fatal(err)
	}
	if n.Dist.Dim() != 1 {
		t.Errorf("historyless project should marginalize eagerly, got %d-D", n.Dist.Dim())
	}
	if len(p.PhantomAttrs()) != 0 {
		t.Errorf("phantoms = %v", p.PhantomAttrs())
	}
}

func TestSelectWhereProb(t *testing.T) {
	// §III-E threshold query: keep tuples whose Pr(x) exceeds p.
	tbl := sensorTable(t)
	sel, err := tbl.Select(Cmp(Col("x"), region.LT, LitF(20)))
	if err != nil {
		t.Fatal(err)
	}
	// Masses: sensor1 = 0.5, sensor2 = P[N(25,4)<20] ≈ 0.0062, sensor3 ≈ 1.
	r, err := sel.SelectWhereProb([]string{"x"}, region.GT, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("threshold kept %d tuples, want 2", r.Len())
	}
	// Certain attributes contribute probability 1.
	r2, err := sel.SelectWhereProb([]string{"id"}, region.GT, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Len() != sel.Len() {
		t.Error("Pr over certain attrs should be 1 for all tuples")
	}
	if _, err := sel.SelectWhereProb([]string{"zz"}, region.GT, 0.5); err == nil {
		t.Error("unknown column should fail")
	}
}

func TestSelectRangeThreshold(t *testing.T) {
	tbl := sensorTable(t)
	// Pr(x ∈ [18,22]): sensor1 high, others near 0.
	r, err := tbl.SelectRangeThreshold("x", 18, 22, region.GE, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Fatalf("kept %d, want 1", r.Len())
	}
	v, _ := r.Value(r.Tuples()[0], "id")
	if v.I != 1 {
		t.Errorf("kept sensor %v", v.Render())
	}
}

// TestDeletePhantomReachability is the phantom rule (§II-C): a deleted
// tuple's base pdf lives on exactly while a derived tuple still reaches it,
// and the collector frees it once none does.
// rowsWhere returns t's tuples whose id satisfies keep, in table order — the
// rows a DELETE's filter tree hands Table.Delete.
func rowsWhere(t *Table, keep func(id int64) bool) []*Tuple {
	var out []*Tuple
	for _, tup := range t.Tuples() {
		if v, _ := t.Value(tup, "id"); keep(v.I) {
			out = append(out, tup)
		}
	}
	return out
}

// TestDeleteRejectsBadRowsChangesNothing: rows out of table order, a
// repeated row and a row of another table each make Delete fail, leaving
// the table's length, tuples and batch slots as they were.
func TestDeleteRejectsBadRowsChangesNothing(t *testing.T) {
	schema := MustSchema(Column{Name: "id", Type: IntType}, Column{Name: "x", Type: FloatType, Uncertain: true})
	tbl := MustTable("r", schema, nil, nil)
	other := MustTable("o", schema, nil, nil)
	for id := int64(1); id <= 5; id++ {
		for _, tb := range []*Table{tbl, other} {
			if err := tb.Insert(Row{
				Values: map[string]Value{"id": Int(id)},
				PDFs:   []PDF{{Attrs: []string{"x"}, Dist: dist.NewGaussian(float64(id), 1)}},
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := append([]*Tuple(nil), tbl.Tuples()...)
	enc := append([]encSlot(nil), tbl.enc...)
	for name, rows := range map[string][]*Tuple{
		"out of order": {before[0], before[3], before[2]},
		"repeated":     {before[1], before[1]},
		"foreign":      {before[0], other.Tuples()[2], before[4]},
	} {
		if n, err := tbl.Delete(rows); err == nil || n != 0 {
			t.Fatalf("%s: Delete = %d, %v; want 0 and an error", name, n, err)
		}
		sameSlots := len(tbl.enc) == len(enc)
		for i := 0; sameSlots && i < len(enc); i++ {
			sameSlots = &tbl.enc[i][0] == &enc[i][0]
		}
		if tbl.Len() != len(before) || !sameSlots {
			t.Fatalf("%s: after a failed Delete: %d rows, %d slots, want %d rows and the same %d slots", name, tbl.Len(), len(tbl.enc), len(before), len(enc))
		}
		for i, tup := range tbl.Tuples() {
			if tup != before[i] {
				t.Fatalf("%s: row %d changed by a failed Delete", name, i)
			}
		}
	}
}

func TestDeletePhantomReachability(t *testing.T) {
	tbl := sensorTable(t)
	var f freed
	f.watch(t, tbl, tbl.Tuples()...)
	derived, err := tbl.Select(Cmp(Col("id"), region.EQ, LitI(1)))
	if err != nil {
		t.Fatal(err)
	}
	if derived.Len() != 1 {
		t.Fatal("derivation missing")
	}
	sensor := func(id int64) []*Tuple {
		return rowsWhere(tbl, func(v int64) bool { return v == id })
	}
	if n, err := tbl.Delete(sensor(1)); err != nil || n != 1 || tbl.Len() != 2 {
		t.Fatalf("deleted %d (%v), remaining %d", n, err, tbl.Len())
	}
	if n := f.after(0); n != 0 {
		t.Errorf("%d base pdfs freed while the derived tuple reaches sensor 1's", n)
	}
	// Deleting the derived tuple leaves nothing reaching the phantom.
	if _, err := derived.Delete(derived.Tuples()); err != nil {
		t.Fatal(err)
	}
	if n := f.after(1); n != 1 {
		t.Errorf("after the derived tuple's delete: %d base pdfs freed, want 1", n)
	}
	// Nothing derived reaches sensor 2: its delete frees its pdf.
	if _, err := tbl.Delete(sensor(2)); err != nil {
		t.Fatal(err)
	}
	if n := f.after(2); n != 2 {
		t.Errorf("after sensor 2's delete: %d base pdfs freed, want 2", n)
	}
	runtime.KeepAlive(tbl)
}

func TestCrossProductErrors(t *testing.T) {
	a := sensorTable(t)
	b := sensorTable(t) // different registry
	if _, err := a.CrossProduct(b); err == nil {
		t.Error("different registries should fail")
	}
	// Same registry but name collision.
	c := MustTable("C", MustSchema(Column{Name: "id", Type: IntType}), nil, a.Registry())
	if err := c.Insert(Row{Values: map[string]Value{"id": Int(9)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.CrossProduct(c); err == nil {
		t.Error("column name collision should fail")
	}
	// Self cross product: dependent copies share attribute identities.
	if _, err := a.CrossProduct(a); err == nil {
		t.Error("self cross product should fail")
	}
	ren, err := a.Prefixed("r_")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.CrossProduct(ren); err == nil {
		t.Error("cross with renamed self is still a dependent copy")
	}
}

func TestJoinCertainKeys(t *testing.T) {
	reg := NewRegistry()
	sensors := MustTable("S",
		MustSchema(Column{Name: "sid", Type: IntType}, Column{Name: "x", Type: FloatType, Uncertain: true}),
		nil, reg)
	rooms := MustTable("R",
		MustSchema(Column{Name: "rid", Type: IntType}, Column{Name: "name", Type: StringType}),
		nil, reg)
	for i := int64(1); i <= 2; i++ {
		if err := sensors.Insert(Row{
			Values: map[string]Value{"sid": Int(i)},
			PDFs:   []PDF{{Attrs: []string{"x"}, Dist: dist.NewGaussian(float64(10*i), 1)}},
		}); err != nil {
			t.Fatal(err)
		}
		if err := rooms.Insert(Row{Values: map[string]Value{"rid": Int(i), "name": Str(strings.Repeat("r", int(i)))}}); err != nil {
			t.Fatal(err)
		}
	}
	j, err := sensors.Join(rooms, Cmp(Col("sid"), region.EQ, Col("rid")))
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 2 {
		t.Fatalf("join size = %d, want 2", j.Len())
	}
	for _, tup := range j.Tuples() {
		s, _ := j.Value(tup, "sid")
		r, _ := j.Value(tup, "rid")
		if s.I != r.I {
			t.Errorf("mismatched join row %v/%v", s.I, r.I)
		}
	}
}

// TestEquiJoinKeysAgreeWithEqual: the hash equi-join pairs exactly the key
// values Value.Equal calls equal — the pairs Join's cross product followed
// by the = selection keeps — whatever the two sides' kinds and renderings:
// INT 1000000 against FLOAT 1e+06, 0 against -0.0, integers beyond 2^53 that
// collapse to one float, BOOL and TEXT against their own kind only, and NULL
// against nothing.
func TestEquiJoinKeysAgreeWithEqual(t *testing.T) {
	reg := NewRegistry()
	mk := func(name, col string, vals ...Value) *Table {
		tb := MustTable(name, MustSchema(Column{Name: col, Type: FloatType}), nil, reg)
		for _, v := range vals {
			if err := tb.Insert(Row{Values: map[string]Value{col: v}}); err != nil {
				t.Fatal(err)
			}
		}
		return tb
	}
	a := mk("A", "i", Int(1000000), Int(0), Int(1<<53+1), Int(5), Str("5"), Bool(true), Null, Int(1))
	b := mk("B", "f", Float(1e6), Float(math.Copysign(0, -1)), Float(1<<53), Int(1<<53), Str("5"), Bool(true), Null, Float(math.NaN()))
	hash, err := a.EquiJoin(b, "i", "f")
	if err != nil {
		t.Fatal(err)
	}
	want, err := a.Join(b, Cmp(Col("i"), region.EQ, Col("f")))
	if err != nil {
		t.Fatal(err)
	}
	if hash.Len() != 6 || hash.Render() != want.Render() {
		t.Errorf("EquiJoin:\n%swant the 6 rows of the cross product under i = f:\n%s", hash.Render(), want.Render())
	}
}

func TestJoinOnUncertainAttrs(t *testing.T) {
	// Join predicate across uncertain attributes of two tables merges
	// dependency sets across the product.
	reg := NewRegistry()
	mk := func(name, col string, mu float64) *Table {
		tbl := MustTable(name,
			MustSchema(Column{Name: col, Type: FloatType, Uncertain: true}), nil, reg)
		if err := tbl.Insert(Row{PDFs: []PDF{{Attrs: []string{col}, Dist: dist.NewGaussian(mu, 1)}}}); err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	a := mk("A", "x", 0)
	b := mk("B", "y", 1)
	j, err := a.Join(b, Cmp(Col("x"), region.LT, Col("y")))
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 1 {
		t.Fatal("join should keep the pair")
	}
	got := j.ExistenceProb(j.Tuples()[0])
	if !almostEqual(got, 0.7602, 0.02) {
		t.Errorf("P[X<Y] = %v", got)
	}
}

func TestRenamedPreservesHistory(t *testing.T) {
	tbl := sensorTable(t)
	r, err := tbl.Renamed(map[string]string{"x": "loc"})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Schema().Has("loc") || r.Schema().Has("x") {
		t.Error("rename not applied")
	}
	n, err := r.NodeOf(r.Tuples()[0], "loc")
	if err != nil {
		t.Fatal(err)
	}
	src, _ := tbl.NodeOf(tbl.Tuples()[0], "x")
	if n.Anc[0] != src.Anc[0] {
		t.Error("rename must preserve history")
	}
	if _, err := tbl.Renamed(map[string]string{"x": "id"}); err == nil {
		t.Error("rename collision should fail")
	}
}

func TestSelectErrors(t *testing.T) {
	tbl := sensorTable(t)
	cases := []Atom{
		Cmp(Col("zz"), region.LT, LitF(1)),
		Cmp(Col("x"), region.EQ, LitS("hello")),
		Cmp(LitF(1), region.LT, LitF(2)),
	}
	for i, a := range cases {
		if _, err := tbl.Select(a); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestSelectConstOnLeft(t *testing.T) {
	tbl := sensorTable(t)
	// 25 > x is the same as x < 25.
	r1, err := tbl.Select(Cmp(LitF(25), region.GT, Col("x")))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := tbl.Select(Cmp(Col("x"), region.LT, LitF(25)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Tuples() {
		d1, _ := r1.DistOf(r1.Tuples()[i], "x")
		d2, _ := r2.DistOf(r2.Tuples()[i], "x")
		if !almostEqual(d1.Mass(), d2.Mass(), 1e-15) {
			t.Errorf("tuple %d: %v vs %v", i, d1.Mass(), d2.Mass())
		}
	}
}

func TestSelectConjunctionOrderIrrelevant(t *testing.T) {
	tbl := sensorTable(t)
	ab, err := tbl.Select(
		Cmp(Col("x"), region.GT, LitF(18)),
		Cmp(Col("x"), region.LT, LitF(24)),
	)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := tbl.Select(
		Cmp(Col("x"), region.LT, LitF(24)),
		Cmp(Col("x"), region.GT, LitF(18)),
	)
	if err != nil {
		t.Fatal(err)
	}
	if ab.Len() != ba.Len() {
		t.Fatalf("lengths differ: %d vs %d", ab.Len(), ba.Len())
	}
	for i := range ab.Tuples() {
		d1, _ := ab.DistOf(ab.Tuples()[i], "x")
		d2, _ := ba.DistOf(ba.Tuples()[i], "x")
		if !almostEqual(d1.Mass(), d2.Mass(), 1e-15) {
			t.Errorf("tuple %d masses differ: %v vs %v", i, d1.Mass(), d2.Mass())
		}
	}
}

func TestSelectDropsZeroMassTuples(t *testing.T) {
	schema := MustSchema(Column{Name: "x", Type: FloatType, Uncertain: true})
	tbl := MustTable("T", schema, nil, nil)
	if err := tbl.Insert(Row{PDFs: []PDF{{Attrs: []string{"x"}, Dist: dist.NewUniform(0, 1)}}}); err != nil {
		t.Fatal(err)
	}
	r, err := tbl.Select(Cmp(Col("x"), region.GT, LitF(5)))
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Errorf("completely floored tuple should be removed, got %d", r.Len())
	}
}

func TestValueHelpers(t *testing.T) {
	if !Int(3).Equal(Float(3)) {
		t.Error("numeric cross-kind equality should hold")
	}
	if Null.Equal(Null) {
		t.Error("NULL equals nothing")
	}
	if c, ok := Str("a").Compare(Str("b")); !ok || c != -1 {
		t.Error("string compare wrong")
	}
	if c, ok := Bool(false).Compare(Bool(true)); !ok || c != -1 {
		t.Error("bool compare wrong")
	}
	if _, ok := Str("a").Compare(Int(1)); ok {
		t.Error("mixed compare should fail")
	}
	if Int(5).Render() != "5" || Str("x").Render() != `"x"` || Null.Render() != "NULL" {
		t.Error("render wrong")
	}
	if v := valueFromFloat(3, IntType); v.Kind != IntValue || v.I != 3 {
		t.Errorf("valueFromFloat int = %+v", v)
	}
	if v := valueFromFloat(3.5, IntType); v.Kind != FloatValue {
		t.Errorf("non-integral float should stay float: %+v", v)
	}
}

func TestRenderIncludesPDFs(t *testing.T) {
	tbl := sensorTable(t)
	s := tbl.Render()
	if !strings.Contains(s, "Gaus(20,5)") || !strings.Contains(s, "id=1") {
		t.Errorf("render missing content:\n%s", s)
	}
}

func TestMergeDepsValidation(t *testing.T) {
	tbl := sensorTable(t)
	if _, err := tbl.MergeDeps("x"); err == nil {
		t.Error("single attr should fail")
	}
	if _, err := tbl.MergeDeps("x", "zz"); err == nil {
		t.Error("unknown attr should fail")
	}
	if _, err := tbl.MergeDeps("x", "id"); err == nil {
		t.Error("certain attr should fail")
	}
}

func TestProbOfMultipleSets(t *testing.T) {
	schema := MustSchema(
		Column{Name: "x", Type: FloatType, Uncertain: true},
		Column{Name: "y", Type: FloatType, Uncertain: true},
	)
	tbl := MustTable("T", schema, nil, nil)
	if err := tbl.Insert(Row{PDFs: []PDF{
		{Attrs: []string{"x"}, Dist: dist.NewDiscrete([]float64{1}, []float64{0.5})},
		{Attrs: []string{"y"}, Dist: dist.NewDiscrete([]float64{2}, []float64{0.4})},
	}}); err != nil {
		t.Fatal(err)
	}
	p, err := tbl.Prob(tbl.Tuples()[0], "x", "y")
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(p, 0.2, 1e-12) {
		t.Errorf("Pr(x,y) = %v, want 0.2", p)
	}
}

func TestSelectDropsNullPromotion(t *testing.T) {
	// A predicate across an uncertain column and a certain column whose
	// value is NULL in some tuple filters that tuple instead of failing.
	schema := MustSchema(
		Column{Name: "c", Type: IntType},
		Column{Name: "a", Type: IntType, Uncertain: true},
	)
	tbl := MustTable("T", schema, nil, nil)
	if err := tbl.Insert(Row{
		Values: map[string]Value{"c": Int(3)},
		PDFs:   []PDF{{Attrs: []string{"a"}, Dist: dist.NewDiscrete([]float64{2}, []float64{1})}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(Row{
		// c omitted: NULL
		PDFs: []PDF{{Attrs: []string{"a"}, Dist: dist.NewDiscrete([]float64{1}, []float64{1})}},
	}); err != nil {
		t.Fatal(err)
	}
	r, err := tbl.Select(Cmp(Col("a"), region.LT, Col("c")))
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Fatalf("rows = %d, want 1 (NULL row dropped)", r.Len())
	}
}

// TestCertainCmpSemantics: the compiled certain comparison — column offsets,
// in-place compares, a float fast path — answers exactly as the Value
// methods do for every operator over every pairing of NULL, INT, FLOAT, NaN,
// TEXT and BOOL, column against literal, literal against column and column
// against column.
func TestCertainCmpSemantics(t *testing.T) {
	vals := []Value{Null, Int(2), Int(3), Float(2), Float(2.5), Float(math.NaN()), Str("a"), Str("b"), Bool(false), Bool(true)}
	want := func(lv Value, op region.Op, rv Value) bool {
		switch op {
		case region.EQ:
			return lv.Equal(rv)
		case region.NE:
			return !lv.IsNull() && !rv.IsNull() && !lv.Equal(rv)
		}
		cmp, ok := lv.Compare(rv)
		return ok && op.Eval(float64(cmp), 0)
	}
	tbl := MustTable("v", MustSchema(Column{Name: "a", Type: FloatType}, Column{Name: "b", Type: FloatType}), nil, nil)
	for _, lv := range vals {
		for _, rv := range vals {
			tup := &Tuple{certain: []Value{lv, rv}}
			for _, op := range []region.Op{region.LT, region.LE, region.GT, region.GE, region.EQ, region.NE} {
				for _, a := range []Atom{Cmp(Col("a"), op, Col("b")), Cmp(Col("a"), op, Lit(rv)), Cmp(Lit(lv), op, Col("b"))} {
					c := tbl.compileCertain(a)
					if got, w := c.eval(tup), want(lv, op, rv); got != w {
						t.Errorf("%s %v %s as %v: got %v, want %v", lv.Render(), op, rv.Render(), a, got, w)
					}
				}
			}
		}
	}
}
