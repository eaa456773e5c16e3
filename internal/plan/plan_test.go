package plan

import (
	"math"
	"testing"

	"probdb/internal/core"
	"probdb/internal/dist"
	"probdb/internal/region"
)

func testTable(t *testing.T, n int) *core.Table {
	t.Helper()
	schema := core.MustSchema(
		core.Column{Name: "rid", Type: core.IntType},
		core.Column{Name: "tag", Type: core.StringType},
		core.Column{Name: "value", Type: core.FloatType, Uncertain: true},
	)
	tb := core.MustTable("readings", schema, nil, nil)
	for i := 0; i < n; i++ {
		row := core.Row{
			Values: map[string]core.Value{"rid": core.Int(int64(i)), "tag": core.Str("s")},
			PDFs:   []core.PDF{{Attrs: []string{"value"}, Dist: dist.NewUniform(float64(i), float64(i)+2)}},
		}
		if err := tb.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func TestAnalyzeHistograms(t *testing.T) {
	tb := testTable(t, 100)
	ts, err := Analyze(tb)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Rows != 100 {
		t.Fatalf("rows = %d", ts.Rows)
	}
	cs := ts.Col("rid")
	if cs == nil || cs.Hist == nil {
		t.Fatal("no histogram for rid")
	}
	if cs.Distinct != 100 {
		t.Errorf("distinct = %d", cs.Distinct)
	}
	// Half the rows are below the median.
	sel := cs.SelectivityCmp(region.LT, core.Int(50))
	if math.Abs(sel-0.5) > 0.1 {
		t.Errorf("LT 50 selectivity = %v", sel)
	}
	if got := cs.SelectivityCmp(region.EQ, core.Int(7)); math.Abs(got-0.01) > 0.005 {
		t.Errorf("EQ selectivity = %v", got)
	}
	vs := ts.Col("value")
	if vs == nil || !vs.Uncertain || vs.Hist == nil {
		t.Fatal("no uncertain stats for value")
	}
	// Total expected mass ~ row count (complete pdfs).
	if math.Abs(vs.TotalMass-100) > 1e-6 {
		t.Errorf("total mass = %v", vs.TotalMass)
	}
	// A narrow low range keeps few rows at a high threshold.
	lowSel := vs.SelectivityProbRange(0, 4, 0.9, ts.Rows)
	highSel := vs.SelectivityProbRange(0, 80, 0.1, ts.Rows)
	if lowSel >= highSel {
		t.Errorf("selectivity not monotone: narrow %v >= wide %v", lowSel, highSel)
	}
}

func TestStatsRoundTrip(t *testing.T) {
	tb := testTable(t, 25)
	ts, err := Analyze(tb)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := ts.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeStats(buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Rows != ts.Rows || len(back.Cols) != len(ts.Cols) {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if back.Col("rid").Distinct != 25 {
		t.Errorf("distinct after round trip = %d", back.Col("rid").Distinct)
	}
	if _, err := DecodeStats([]byte("{garbage")); err == nil {
		t.Error("bad payload decoded")
	}
}

func TestIndexProbes(t *testing.T) {
	tb := testTable(t, 200)
	ix := NewTableIndexes()
	if err := ix.Create(tb, "value"); err != nil {
		t.Fatal(err)
	}
	if err := ix.Create(tb, "rid"); err != nil {
		t.Fatal(err)
	}
	if err := ix.Create(tb, "rid"); err == nil {
		t.Error("duplicate index accepted")
	}
	if err := ix.Create(tb, "nope"); err == nil {
		t.Error("index on unknown column accepted")
	}

	// PTI probe: uniform(i, i+2) has mass >= 0.5 in [10, 12] only near i=10.
	cand, st, ok := ix.ProbePTI("value", 10, 12, 0.5)
	if !ok {
		t.Fatal("pti probe failed")
	}
	if st.Verified >= 200 {
		t.Errorf("probe verified every pdf (%d)", st.Verified)
	}
	tups := ix.Restrict(tb, cand)
	for _, tup := range tups {
		d, _ := tb.DistOf(tup, "value")
		if dist.MassInterval(d, 10, 12) < 0.5 {
			t.Errorf("candidate below threshold")
		}
	}
	if len(tups) == 0 {
		t.Error("no candidates for a satisfiable probe")
	}

	// BTree probe: rid <= 5 is a superset of {0..5}.
	bcand, ok := ix.ProbeBTree("rid", region.LE, core.Int(5))
	if !ok {
		t.Fatal("btree probe failed")
	}
	btups := ix.Restrict(tb, bcand)
	if len(btups) < 6 || len(btups) >= 200 {
		t.Errorf("btree candidates = %d", len(btups))
	}
	for _, tup := range btups[:6] {
		v, _ := tb.Value(tup, "rid")
		if v.I > 5 {
			t.Errorf("missing low rid; got %d", v.I)
		}
	}
}

func TestIndexDML(t *testing.T) {
	tb := testTable(t, 50)
	ix := NewTableIndexes()
	if err := ix.Create(tb, "value"); err != nil {
		t.Fatal(err)
	}
	if err := ix.Create(tb, "rid"); err != nil {
		t.Fatal(err)
	}
	// Delete the first 10 tuples, tell the index, and verify probes exclude
	// them while the rest stay reachable.
	victims := append([]*core.Tuple(nil), tb.Tuples()[:10]...)
	if _, err := tb.Delete(victims); err != nil {
		t.Fatal(err)
	}
	for _, tup := range victims {
		if err := ix.NoteDelete(tup); err != nil {
			t.Fatal(err)
		}
	}
	cand, _, _ := ix.ProbePTI("value", 0, 100, 0.9)
	if got := len(ix.Restrict(tb, cand)); got != 40 {
		t.Errorf("post-delete candidates = %d, want 40", got)
	}
	// Insert a fresh tuple and find it through both indexes.
	if err := tb.Insert(core.Row{
		Values: map[string]core.Value{"rid": core.Int(999), "tag": core.Str("s")},
		PDFs:   []core.PDF{{Attrs: []string{"value"}, Dist: dist.NewUniform(500, 502)}},
	}); err != nil {
		t.Fatal(err)
	}
	fresh := tb.Tuples()[tb.Len()-1]
	if err := ix.NoteInsert(tb, fresh); err != nil {
		t.Fatal(err)
	}
	cand, _, _ = ix.ProbePTI("value", 500, 502, 0.9)
	if got := ix.Restrict(tb, cand); len(got) != 1 || got[0] != fresh {
		t.Errorf("fresh tuple not found via PTI: %d candidates", len(got))
	}
	bcand, ok := ix.ProbeBTree("rid", region.EQ, core.Int(999))
	if !ok || len(ix.Restrict(tb, bcand)) != 1 {
		t.Errorf("fresh tuple not found via btree")
	}
}

func TestChoosePrefersSelectiveProbe(t *testing.T) {
	tb := testTable(t, 100)
	ts, err := Analyze(tb)
	if err != nil {
		t.Fatal(err)
	}
	ix := NewTableIndexes()
	if err := ix.Create(tb, "value"); err != nil {
		t.Fatal(err)
	}
	if err := ix.Create(tb, "rid"); err != nil {
		t.Fatal(err)
	}
	conj := []Conjunct{
		{Kind: ConjCmp, Orig: 0, Col: "rid", Op: region.LT, Val: core.Int(90)},
		{Kind: ConjProbRange, Orig: 1, ProbCols: []string{"value"}, Lo: 10, Hi: 12, Op: region.GE, Threshold: 0.8},
	}
	p := Choose(ts, ix, conj, false)
	if p.Access != AccessPTI || p.Col != "value" || !p.Consumed {
		t.Fatalf("plan = %+v", p)
	}
	if len(p.ResidualProb) != 0 {
		t.Errorf("consumed conjunct left in residual: %v", p.ResidualProb)
	}
	if p.EstCand >= 50 {
		t.Errorf("est candidates = %v for a narrow probe", p.EstCand)
	}

	// GT keeps the conjunct for re-verification.
	conj[1].Op = region.GT
	p = Choose(ts, ix, conj, false)
	if p.Access != AccessPTI || p.Consumed || len(p.ResidualProb) != 1 {
		t.Fatalf("GT plan = %+v", p)
	}

	// Forcing a scan disables every index path.
	p = Choose(ts, ix, conj, true)
	if p.Access != AccessScan || p.Reason != "forced" {
		t.Fatalf("forced plan = %+v", p)
	}

	// An uncertain-column comparison disables the PTI but not the btree.
	conj = append(conj, Conjunct{Kind: ConjCmp, Orig: 2, Col: "value", ColUncertain: true, Op: region.LT, Val: core.Float(50)})
	p = Choose(ts, ix, conj, false)
	if p.Access != AccessBTree || p.Col != "rid" {
		t.Fatalf("floored plan = %+v", p)
	}
}

func TestChooseResidualOrdering(t *testing.T) {
	tb := testTable(t, 100)
	ts, err := Analyze(tb)
	if err != nil {
		t.Fatal(err)
	}
	// Two prob-range conjuncts: the narrow one (more selective) should run
	// first regardless of written order.
	conj := []Conjunct{
		{Kind: ConjProbRange, Orig: 0, ProbCols: []string{"value"}, Lo: 0, Hi: 200, Op: region.GE, Threshold: 0.01},
		{Kind: ConjProbRange, Orig: 1, ProbCols: []string{"value"}, Lo: 10, Hi: 11, Op: region.GE, Threshold: 0.9},
	}
	p := Choose(ts, nil, conj, false)
	if p.Access != AccessScan {
		t.Fatalf("no indexes but access = %v", p.Access)
	}
	if len(p.ResidualProb) != 2 || p.ResidualProb[0] != 1 {
		t.Errorf("residual order = %v, want narrow conjunct first", p.ResidualProb)
	}
	// Without stats the written order is preserved.
	p = Choose(nil, nil, conj, false)
	if len(p.ResidualProb) != 2 || p.ResidualProb[0] != 0 {
		t.Errorf("statless residual order = %v, want written order", p.ResidualProb)
	}
	if p.Reason == "" {
		t.Error("scan fallback carries no reason")
	}
}

// foldTable is testTable plus rows the tree cannot key: two NULL rids, which
// live on the btree's spill list and must survive every probe.
func foldTable(t *testing.T) (*core.Table, *TableIndexes) {
	t.Helper()
	tb := testTable(t, 100)
	for i := 0; i < 2; i++ {
		if err := tb.Insert(core.Row{
			Values: map[string]core.Value{"rid": core.Null, "tag": core.Str("null")},
			PDFs:   []core.PDF{{Attrs: []string{"value"}, Dist: dist.NewUniform(0, 1)}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	ix := NewTableIndexes()
	if err := ix.Create(tb, "rid"); err != nil {
		t.Fatal(err)
	}
	if err := ix.Check(tb); err != nil {
		t.Fatal(err)
	}
	return tb, ix
}

func cmp(orig int, op region.Op, v core.Value) Conjunct {
	return Conjunct{Kind: ConjCmp, Orig: orig, Col: "rid", Op: op, Val: v}
}

// TestFoldRanges: every probe-able comparison on one btree column folds into
// one inclusive key range, and the candidates of that range are exactly the
// keyed rows inside it plus the spill list, in base order.
func TestFoldRanges(t *testing.T) {
	tb, ix := foldTable(t)
	cases := []struct {
		name   string
		conj   []Conjunct
		lo, hi int64 // expected key range; lo > hi means any empty range
		keyed  int   // candidates expected from the tree
	}{
		{"a <= x AND x < b", []Conjunct{cmp(0, region.GE, core.Int(10)), cmp(1, region.LT, core.Int(60))}, 10, 59, 50},
		{"single bound", []Conjunct{cmp(0, region.LE, core.Int(4))}, math.MinInt64, 4, 5},
		{"duplicate and redundant bounds", []Conjunct{
			cmp(0, region.GE, core.Int(3)), cmp(1, region.GE, core.Int(5)), cmp(2, region.GT, core.Int(4)),
			cmp(3, region.LT, core.Int(10)), cmp(4, region.LT, core.Int(10)), cmp(5, region.LE, core.Int(50)),
		}, 5, 9, 5},
		{"contradiction", []Conjunct{cmp(0, region.GT, core.Int(10)), cmp(1, region.LT, core.Int(5))}, 1, 0, 0},
		{"float bounds", []Conjunct{cmp(0, region.GT, core.Float(59.5)), cmp(1, region.LT, core.Float(62.5))}, 60, 62, 3},
		{"integral float bounds", []Conjunct{cmp(0, region.GE, core.Float(7)), cmp(1, region.LT, core.Float(9))}, 7, 8, 2},
		{"= inside a range", []Conjunct{cmp(0, region.EQ, core.Int(7)), cmp(1, region.LT, core.Int(10))}, 7, 7, 1},
		{"= outside a range", []Conjunct{cmp(0, region.EQ, core.Int(12)), cmp(1, region.LT, core.Int(10))}, 1, 0, 0},
		{"non-integral =", []Conjunct{cmp(0, region.EQ, core.Float(2.5))}, 1, 0, 0},
		{"text literal beside a range", []Conjunct{cmp(0, region.EQ, core.Str("x")), cmp(1, region.LT, core.Int(3))}, math.MinInt64, 2, 3},
	}
	for _, c := range cases {
		p := Choose(nil, ix, c.conj, false)
		if p.Access != AccessBTree || p.Col != "rid" || p.Consumed {
			t.Errorf("%s: plan = %+v", c.name, p)
			continue
		}
		if wantEmpty, empty := c.lo > c.hi, p.KeyLo > p.KeyHi; wantEmpty != empty ||
			(!empty && (p.KeyLo != c.lo || p.KeyHi != c.hi)) {
			t.Errorf("%s: key range [%d, %d], want [%d, %d]", c.name, p.KeyLo, p.KeyHi, c.lo, c.hi)
		}
		cand, ok := ix.ProbeKeys("rid", p.KeyLo, p.KeyHi)
		if !ok {
			t.Errorf("%s: probe failed", c.name)
			continue
		}
		tups := ix.Restrict(tb, cand)
		if len(tups) != c.keyed+2 {
			t.Errorf("%s: %d candidates, want %d keyed + 2 spilled", c.name, len(tups), c.keyed)
		}
		// Base order: keyed rows ascend by rid here, the NULL rows come last.
		for i, tup := range tups {
			v, _ := tb.Value(tup, "rid")
			if i < c.keyed && (v.I < p.KeyLo || v.I > p.KeyHi || (i > 0 && cand[i] <= cand[i-1])) {
				t.Errorf("%s: candidate %d is rid %s (rowid %d)", c.name, i, v.Render(), cand[i])
			}
			if i >= c.keyed && !v.IsNull() {
				t.Errorf("%s: spilled candidate %d is rid %s", c.name, i, v.Render())
			}
		}
	}

	// Folding counts conjuncts, and only folded ranges change the EXPLAIN line.
	two := []Conjunct{cmp(0, region.GE, core.Int(10)), cmp(1, region.LT, core.Int(60))}
	if p := Choose(nil, ix, two, false); p.Folded != 2 || p.Describe(two) != "access: btree(rid) [10, 59] [re-verified]" {
		t.Errorf("folded plan: %d conjuncts, %q", p.Folded, p.Describe(two))
	}
	one := two[1:]
	if p := Choose(nil, ix, one, false); p.Folded != 1 || p.Describe(one) != "access: btree(rid) < 60 [re-verified]" {
		t.Errorf("single-conjunct plan: %d conjuncts, %q", p.Folded, p.Describe(one))
	}
	dup := []Conjunct{cmp(0, region.LT, core.Int(5)), cmp(1, region.LT, core.Int(8))}
	if got := Choose(nil, ix, dup, false).Describe(dup); got != "access: btree(rid) [-inf, 4] [re-verified]" {
		t.Errorf("open range renders %q", got)
	}
	contra := []Conjunct{cmp(0, region.GT, core.Int(10)), cmp(1, region.LT, core.Int(5))}
	if got := Choose(nil, ix, contra, false).Describe(contra); got != "access: btree(rid) [] [re-verified]" {
		t.Errorf("empty range renders %q", got)
	}
}

// TestFoldSelectivity: a folded range is estimated as the histogram mass of
// the intersection, not of either side alone.
func TestFoldSelectivity(t *testing.T) {
	tb, ix := foldTable(t)
	ts, err := Analyze(tb)
	if err != nil {
		t.Fatal(err)
	}
	p := Choose(ts, ix, []Conjunct{cmp(0, region.GE, core.Int(40)), cmp(1, region.LT, core.Int(50))}, false)
	if p.EstCand < 5 || p.EstCand > 15 {
		t.Errorf("two-sided range of 10 rows estimated at %.1f candidates", p.EstCand)
	}
	p = Choose(ts, ix, []Conjunct{cmp(0, region.GT, core.Int(10)), cmp(1, region.LT, core.Int(5))}, false)
	if p.EstCand != 0 {
		t.Errorf("contradictory range estimated at %.1f candidates", p.EstCand)
	}
	// One conjunct estimates as the unfolded comparison does, and the
	// estimate follows the key range, not the spelling of its bounds.
	one := Choose(ts, ix, []Conjunct{cmp(0, region.LT, core.Int(50))}, false)
	if want := ts.Col("rid").SelectivityCmp(region.LT, core.Int(50)) * float64(ts.Rows); one.EstCand != want {
		t.Errorf("single conjunct estimated at %v, want %v", one.EstCand, want)
	}
	if le := Choose(ts, ix, []Conjunct{cmp(0, region.LE, core.Int(49))}, false); le.EstCand != one.EstCand {
		t.Errorf("rid <= 49 estimated at %v, rid < 50 at %v", le.EstCand, one.EstCand)
	}
}

// TestFoldUnindexableLiterals: a literal no key range stands for is not
// folded; alone on an indexed column it leaves a scan that counts as a
// fallback, while a predicate on an unindexed column does not.
func TestFoldUnindexableLiterals(t *testing.T) {
	_, ix := foldTable(t)
	for _, v := range []core.Value{core.Str("x"), core.Float(1e300), core.Float(math.Inf(1)), core.Int(1 << 60), core.Null} {
		conj := []Conjunct{cmp(0, region.EQ, v)}
		p := Choose(nil, ix, conj, false)
		if p.Access != AccessScan || !p.Fallback {
			t.Errorf("literal %s: plan = %+v", v.Render(), p)
		}
		if _, ok := ix.ProbeBTree("rid", region.EQ, v); ok {
			t.Errorf("literal %s: ProbeBTree answered", v.Render())
		}
	}
	other := []Conjunct{{Kind: ConjCmp, Orig: 0, Col: "tag", Op: region.EQ, Val: core.Str("s")}}
	if p := Choose(nil, ix, other, false); p.Access != AccessScan || p.Fallback {
		t.Errorf("unindexed column: plan = %+v", p)
	}
	if p := Choose(nil, ix, nil, false); p.Fallback {
		t.Errorf("no WHERE clause counted as a fallback")
	}
	if p := Choose(nil, ix, []Conjunct{cmp(0, region.NE, core.Int(3))}, false); p.Access != AccessScan || !p.Fallback {
		t.Errorf("<> on an indexed column: plan = %+v", p)
	}
}

// TestRowidOrderInvariant: ascending rowid is base-table order through
// deletes that cross the btree and PTI compaction thresholds, appends, and an
// index created on a table whose rowids already have holes.
func TestRowidOrderInvariant(t *testing.T) {
	tb := testTable(t, 200)
	ix := NewTableIndexes()
	for _, col := range []string{"rid", "value"} {
		if err := ix.Create(tb, col); err != nil {
			t.Fatal(err)
		}
	}
	del := func(pred func(rid int64) bool) {
		t.Helper()
		var gone []*core.Tuple
		for _, tup := range tb.Tuples() {
			if v, _ := tb.Value(tup, "rid"); pred(v.I) {
				gone = append(gone, tup)
			}
		}
		if _, err := tb.Delete(gone); err != nil {
			t.Fatal(err)
		}
		for _, tup := range gone {
			if err := ix.NoteDelete(tup); err != nil {
				t.Fatal(err)
			}
		}
		if err := ix.Check(tb); err != nil {
			t.Fatal(err)
		}
	}
	del(func(rid int64) bool { return rid%3 == 0 }) // 67 of 200: past 32 and a quarter
	for i := 0; i < 40; i++ {
		if err := tb.Insert(core.Row{
			Values: map[string]core.Value{"rid": core.Int(int64(150 - i)), "tag": core.Str("late")},
			PDFs:   []core.PDF{{Attrs: []string{"value"}, Dist: dist.NewUniform(float64(i), float64(i)+2)}},
		}); err != nil {
			t.Fatal(err)
		}
		if err := ix.NoteInsert(tb, tb.Tuples()[tb.Len()-1]); err != nil {
			t.Fatal(err)
		}
	}
	del(func(rid int64) bool { return rid > 120 && rid < 140 })
	if err := ix.Create(tb, "tag"); err != nil {
		t.Fatal(err)
	}
	if err := ix.Check(tb); err != nil {
		t.Fatal(err)
	}
	// Duplicate keys inserted out of key order still restrict to base order.
	cand, ok := ix.ProbeKeys("rid", 100, 150)
	if !ok {
		t.Fatal("probe failed")
	}
	var want []*core.Tuple
	for _, tup := range tb.Tuples() {
		if v, _ := tb.Value(tup, "rid"); v.I >= 100 && v.I <= 150 {
			want = append(want, tup)
		}
	}
	got := ix.Restrict(tb, cand)
	if len(got) != len(want) {
		t.Fatalf("%d candidates, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("candidate %d is out of base order", i)
		}
	}
	if err := ix.Rebuild(tb); err != nil {
		t.Fatal(err)
	}
	if err := ix.Check(tb); err != nil {
		t.Fatal(err)
	}
}
