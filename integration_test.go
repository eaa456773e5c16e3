// Cross-subsystem integration tests: SQL front end, persistence, and the
// threshold index working against each other on the same data.
package main_test

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"probdb/internal/core"
	"probdb/internal/index"
	"probdb/internal/query"
	"probdb/internal/region"
	"probdb/internal/storage"
	"probdb/internal/vfs"
	"probdb/internal/workload"
)

// TestSQLPersistReloadQuery drives the full stack: create and fill a table
// through SQL, persist it to a snapshot file, reload into a fresh database, and
// check that queries agree before and after the round trip.
func TestSQLPersistReloadQuery(t *testing.T) {
	db := query.Open()
	mustExec(t, db, "CREATE TABLE readings (rid INT, value FLOAT UNCERTAIN)")
	gen := workload.NewGen(4242)
	for i, rd := range gen.Readings(200) {
		g := rd.Value.(interface{ Mean(int) float64 })
		sigma2 := rd.Value.Variance(0)
		mustExecf(t, db, "INSERT INTO readings (rid, value) VALUES (%d, GAUSSIAN(%g, %g))",
			i, g.Mean(0), sigma2)
	}
	before := mustExec(t, db, "SELECT rid FROM readings WHERE PROB(value IN [40, 60]) >= 0.9")

	// Persist.
	tbl, ok := db.Table("readings")
	if !ok {
		t.Fatal("table missing")
	}
	path := filepath.Join(t.TempDir(), "readings.snap")
	if err := storage.SaveTable(vfs.OS, path, tbl); err != nil {
		t.Fatal(err)
	}

	// Reload into a fresh world.
	loaded, err := storage.LoadTable(vfs.OS, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	after, err := loaded.SelectRangeThreshold("value", 40, 60, region.GE, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if before.Table.Len() != after.Len() {
		t.Fatalf("result size changed across persistence: %d vs %d", before.Table.Len(), after.Len())
	}
	wantIDs := collectRIDs(t, before.Table, "rid")
	gotIDs := collectRIDs(t, after, "rid")
	for i := range wantIDs {
		if wantIDs[i] != gotIDs[i] {
			t.Fatalf("rid mismatch at %d: %d vs %d", i, wantIDs[i], gotIDs[i])
		}
	}
}

// TestIndexAgreesWithModelLayer: the threshold index answers the same
// queries as the model layer's scan-based SelectRangeThreshold.
func TestIndexAgreesWithModelLayer(t *testing.T) {
	schema := core.MustSchema(
		core.Column{Name: "rid", Type: core.IntType},
		core.Column{Name: "value", Type: core.FloatType, Uncertain: true},
	)
	tbl := core.MustTable("R", schema, nil, nil)
	gen := workload.NewGen(777)
	var items []index.Item
	for _, rd := range gen.Readings(400) {
		if err := tbl.Insert(core.Row{
			Values: map[string]core.Value{"rid": core.Int(rd.RID)},
			PDFs:   []core.PDF{{Attrs: []string{"value"}, Dist: rd.Value}},
		}); err != nil {
			t.Fatal(err)
		}
		items = append(items, index.Item{RID: rd.RID, Dist: rd.Value})
	}
	ix := index.Build(items)
	for _, q := range gen.RangeQueries(25) {
		for _, p := range []float64{0.2, 0.5, 0.9} {
			viaIndex, _ := ix.RangeThreshold(q.Lo, q.Hi, p)
			viaScan, err := tbl.SelectRangeThreshold("value", q.Lo, q.Hi, region.GE, p)
			if err != nil {
				t.Fatal(err)
			}
			scanIDs := collectRIDs(t, viaScan, "rid")
			if len(viaIndex) != len(scanIDs) {
				t.Fatalf("q=[%v,%v] p=%v: index %d vs scan %d results", q.Lo, q.Hi, p, len(viaIndex), len(scanIDs))
			}
			for i := range viaIndex {
				if viaIndex[i] != scanIDs[i] {
					t.Fatalf("q=[%v,%v] p=%v: id mismatch %d vs %d", q.Lo, q.Hi, p, viaIndex[i], scanIDs[i])
				}
			}
		}
	}
}

// TestAggregateAgreesWithEnumeration: SQL-level SUM over a table small
// enough to enumerate matches the brute-force expectation.
func TestAggregateAgreesWithEnumeration(t *testing.T) {
	db := query.Open()
	mustExec(t, db, "CREATE TABLE t (k INT, x INT UNCERTAIN)")
	mustExec(t, db, `INSERT INTO t (k, x) VALUES
		(1, DISCRETE(1:0.25, 3:0.75)),
		(2, DISCRETE(2:0.5)),
		(3, DISCRETE(0:0.1, 5:0.9))`)
	tbl, _ := db.Table("t")
	s, err := tbl.AggregateSum("x", core.AggOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Brute force over the 2*2*2 (with absence) worlds.
	type world struct{ v, p float64 }
	x1 := []world{{1, 0.25}, {3, 0.75}}
	x2 := []world{{2, 0.5}, {0, 0.5}}
	x3 := []world{{0, 0.1}, {5, 0.9}}
	want := map[float64]float64{}
	for _, a := range x1 {
		for _, b := range x2 {
			for _, c := range x3 {
				want[a.v+b.v+c.v] += a.p * b.p * c.p
			}
		}
	}
	for v, p := range want {
		if got := s.At([]float64{v}); math.Abs(got-p) > 1e-12 {
			t.Errorf("P(sum=%v) = %v, want %v", v, got, p)
		}
	}
}

func collectRIDs(t *testing.T, tbl *core.Table, col string) []int64 {
	t.Helper()
	out := make([]int64, 0, tbl.Len())
	for _, tup := range tbl.Tuples() {
		v, ok := tbl.Value(tup, col)
		if !ok {
			t.Fatalf("missing %s", col)
		}
		out = append(out, v.I)
	}
	return out
}

func mustExec(t *testing.T, db *query.DB, sql string) *query.Result {
	t.Helper()
	r, err := db.Exec(sql)
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	return r
}

func mustExecf(t *testing.T, db *query.DB, format string, args ...any) *query.Result {
	t.Helper()
	return mustExec(t, db, fmt.Sprintf(format, args...))
}
