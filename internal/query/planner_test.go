package query

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"probdb/internal/pipe"
)

// plannerFixture loads a table with a spread of pdf kinds, certain values,
// NULLs and a string column, so index paths must cope with every value
// class.
func plannerFixture(t *testing.T, db *DB) {
	t.Helper()
	mustExec(t, db, `CREATE TABLE sensors (sid INT, site TEXT, temp FLOAT UNCERTAIN, hum FLOAT UNCERTAIN)`)
	for i := 0; i < 120; i++ {
		temp := fmt.Sprintf("GAUSSIAN(%d, 4)", 10+i%40)
		if i%7 == 0 {
			temp = fmt.Sprintf("UNIFORM(%d, %d)", i%30, i%30+5)
		}
		hum := fmt.Sprintf("UNIFORM(%d, %d)", 40+i%20, 50+i%20)
		site := fmt.Sprintf("'s%d'", i%5)
		sid := fmt.Sprintf("%d", i)
		if i%11 == 0 {
			sid = "NULL"
		}
		mustExec(t, db, fmt.Sprintf(
			`INSERT INTO sensors (sid, site, temp, hum) VALUES (%s, %s, %s, %s)`,
			sid, site, temp, hum))
	}
}

// renderRows strips the header (the derived table name differs between
// access paths by design) and returns the rendered tuple lines — the bytes
// the differential suite compares.
func renderRows(r *Result) string {
	if r.Table == nil {
		return r.Message
	}
	s := r.Table.Render()
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// differentialQueries is the battery every planner change must keep
// byte-identical to the forced-scan path.
var differentialQueries = []string{
	`SELECT * FROM sensors`,
	`SELECT sid, temp FROM sensors WHERE PROB(temp IN [20, 30]) >= 0.5`,
	`SELECT sid FROM sensors WHERE PROB(temp IN [20, 30]) > 0.5`,
	`SELECT sid FROM sensors WHERE PROB(temp IN [20, 30]) < 0.5`,
	`SELECT sid FROM sensors WHERE PROB(temp IN [0, 100]) >= 0.99`,
	`SELECT sid FROM sensors WHERE sid < 40 AND PROB(temp IN [20, 30]) >= 0.6`,
	`SELECT sid FROM sensors WHERE sid >= 100`,
	`SELECT sid FROM sensors WHERE sid = 55`,
	`SELECT sid FROM sensors WHERE sid <= 10 AND site = 's0'`,
	`SELECT sid FROM sensors WHERE site = 's3' AND PROB(hum IN [45, 55]) >= 0.3`,
	`SELECT sid FROM sensors WHERE PROB(temp IN [15, 25]) >= 0.4 AND PROB(hum IN [40, 60]) >= 0.5`,
	`SELECT sid FROM sensors WHERE temp < 25 AND PROB(temp) > 0.5`,
	`SELECT sid FROM sensors WHERE temp < 25 AND PROB(temp IN [10, 20]) >= 0.2`,
	`SELECT sid FROM sensors WHERE sid > 20 AND sid < 80 AND PROB(hum) >= 0.9`,
	`SELECT SUM(temp) FROM sensors WHERE PROB(temp IN [20, 28]) >= 0.5`,
	`SELECT COUNT(*) FROM sensors WHERE sid < 60`,
	`SELECT sid FROM sensors WHERE PROB(temp IN [20, 30]) >= 0.5 ORDER BY sid DESC LIMIT 7`,
	`SELECT sid FROM sensors WHERE sid <> 4 AND PROB(temp IN [12, 22]) >= 0.5`,
	`SELECT sid FROM sensors WHERE sid = 3.5`,
	`SELECT sid FROM sensors WHERE sid >= 59.5 AND sid <= 60.5`,
}

// atProcs runs the rest of the (sub)test at GOMAXPROCS n — the worker count
// of the kernels' morsel loops, which run inline at 1 — and restores the
// previous setting when it ends. The par=N subtests of the differentials
// run at GOMAXPROCS N.
func atProcs(t testing.TB, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestPlannerDifferential asserts that planner-chosen plans (stats +
// indexes on) return byte-identical rows to the forced-full-scan path, with
// the morsel loops inline (par=1) and fanned out (par=4).
func TestPlannerDifferential(t *testing.T) {
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			atProcs(t, par)
			db := Open()
			plannerFixture(t, db)
			mustExec(t, db, `ANALYZE sensors`)
			mustExec(t, db, `CREATE INDEX ON sensors (temp)`)
			mustExec(t, db, `CREATE INDEX ON sensors (hum)`)
			mustExec(t, db, `CREATE INDEX ON sensors (sid)`)

			probesTotal := uint64(0)
			for _, q := range differentialQueries {
				db.SetForceScan(true)
				want := renderRows(mustExec(t, db, q))
				db.SetForceScan(false)
				got := mustExec(t, db, q)
				if renderRows(got) != want {
					t.Errorf("%s:\nplanner: %s\nscan:    %s", q, renderRows(got), want)
				}
				probesTotal += got.Planner.IndexProbes
			}
			if probesTotal == 0 {
				t.Error("no query used an index probe")
			}
		})
	}
}

// TestPlannerDifferentialUnderDML re-checks a probe query against the scan
// path across interleaved inserts and deletes, exercising incremental index
// maintenance end to end.
func TestPlannerDifferentialUnderDML(t *testing.T) {
	db := Open()
	plannerFixture(t, db)
	mustExec(t, db, `CREATE INDEX ON sensors (temp)`)
	mustExec(t, db, `CREATE INDEX ON sensors (sid)`)
	check := func() {
		t.Helper()
		for _, q := range []string{
			`SELECT sid FROM sensors WHERE PROB(temp IN [18, 26]) >= 0.5`,
			`SELECT sid FROM sensors WHERE sid < 30`,
		} {
			db.SetForceScan(true)
			want := renderRows(mustExec(t, db, q))
			db.SetForceScan(false)
			if got := renderRows(mustExec(t, db, q)); got != want {
				t.Fatalf("%s diverged after DML:\nplanner: %s\nscan:    %s", q, got, want)
			}
		}
	}
	check()
	for round := 0; round < 5; round++ {
		mustExec(t, db, fmt.Sprintf(`DELETE FROM sensors WHERE sid >= %d AND sid < %d`, round*10, round*10+5))
		for i := 0; i < 8; i++ {
			mustExec(t, db, fmt.Sprintf(
				`INSERT INTO sensors (sid, site, temp, hum) VALUES (%d, 's9', GAUSSIAN(%d, 2), UNIFORM(40, 50))`,
				1000+round*10+i, 15+i))
		}
		check()
	}
}

// TestPTIDiscreteEdgeThroughSQL is internal/index's TestPTIDiscreteEdge
// through the SQL surface: a PTI probe whose lower bound falls on or just
// below a discrete support point keeps the row, exactly as the forced scan
// does. Before the x-bounds were exact the probe returned no row.
func TestPTIDiscreteEdgeThroughSQL(t *testing.T) {
	for _, x := range []float64{20, 1, 37.5, 0.3, 1000} {
		db := Open()
		mustExec(t, db, `CREATE TABLE r (rid INT, v FLOAT UNCERTAIN)`)
		f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
		mustExec(t, db, fmt.Sprintf(`INSERT INTO r (rid, v) VALUES (1, DISCRETE(%s:0.5, %s:0.5))`, f(x/2), f(x)))
		mustExec(t, db, `CREATE INDEX ON r (v)`)
		bounds := []float64{x, math.Nextafter(x, math.Inf(-1)), x - 3e-12*x}
		if x == 20 {
			bounds = append(bounds, 19.99999999999929) // the recorded repro
		}
		for _, lo := range bounds {
			q := fmt.Sprintf(`SELECT rid FROM r WHERE PROB(v IN [%s, %s]) >= 0.5`, f(lo), f(2*x))
			got := mustExec(t, db, q)
			if got.Planner.IndexProbes == 0 {
				t.Fatalf("%s: the PTI was not probed", q)
			}
			db.SetForceScan(true)
			want := renderRows(mustExec(t, db, q))
			db.SetForceScan(false)
			if renderRows(got) != want || got.Table.Len() != 1 {
				t.Errorf("%s:\nindex (%d rows): %s\nscan: %s", q, got.Table.Len(), renderRows(got), want)
			}
		}
	}
}

func TestAnalyzeAndCreateIndexStatements(t *testing.T) {
	db := Open()
	plannerFixture(t, db)
	r := mustExec(t, db, `ANALYZE`)
	if !strings.Contains(r.Message, "analyzed 1 table(s)") {
		t.Errorf("ANALYZE message = %q", r.Message)
	}
	if db.TableStats("sensors") == nil {
		t.Fatal("no stats after ANALYZE")
	}
	if _, err := db.Exec(`ANALYZE nope`); err == nil {
		t.Error("ANALYZE of a missing table succeeded")
	}
	r = mustExec(t, db, `CREATE INDEX temp_idx ON sensors (temp)`)
	if !strings.Contains(r.Message, "pti") {
		t.Errorf("uncertain index message = %q", r.Message)
	}
	r = mustExec(t, db, `CREATE INDEX ON sensors (sid)`)
	if !strings.Contains(r.Message, "btree") || !strings.Contains(r.Message, "sensors_sid_idx") {
		t.Errorf("certain index message = %q", r.Message)
	}
	if _, err := db.Exec(`CREATE INDEX ON sensors (temp)`); err == nil {
		t.Error("duplicate index succeeded")
	}
	if _, err := db.Exec(`CREATE INDEX ON nope (x)`); err == nil {
		t.Error("index on missing table succeeded")
	}
	desc := mustExec(t, db, `DESCRIBE sensors`).Message
	if !strings.Contains(desc, "indexes: sid(btree), temp(pti)") {
		t.Errorf("DESCRIBE lacks indexes: %q", desc)
	}
	if !strings.Contains(desc, "stats: analyzed at 120 rows") {
		t.Errorf("DESCRIBE lacks stats: %q", desc)
	}
	// DROP discards planner state; recreating the table starts clean.
	mustExec(t, db, `DROP TABLE sensors`)
	if db.TableStats("sensors") != nil {
		t.Error("stats survived DROP")
	}
	if len(db.IndexedCols("sensors")) != 0 {
		t.Error("indexes survived DROP")
	}
}

func TestExplainUsesIndexWithoutMaterializing(t *testing.T) {
	db := Open()
	plannerFixture(t, db)
	mustExec(t, db, `ANALYZE sensors`)
	mustExec(t, db, `CREATE INDEX ON sensors (temp)`)

	r := mustExec(t, db, `EXPLAIN SELECT sid FROM sensors WHERE PROB(temp IN [20, 30]) >= 0.6`)
	msg := r.Message
	for _, want := range []string{"access: pti(temp)", "[consumed]", "est rows:", "rows: ", "index: 1 probes"} {
		if !strings.Contains(msg, want) {
			t.Errorf("EXPLAIN missing %q:\n%s", want, msg)
		}
	}
	if r.Planner.IndexPruned == 0 {
		t.Error("EXPLAIN reported no pruned pdfs despite the PTI")
	}
	// The actual cardinality must match the executed query.
	got := mustExec(t, db, `SELECT sid FROM sensors WHERE PROB(temp IN [20, 30]) >= 0.6`)
	if !strings.Contains(msg, fmt.Sprintf("rows: %d\n", got.Affected)) {
		t.Errorf("EXPLAIN cardinality diverges from execution (%d):\n%s", got.Affected, msg)
	}

	// A GT threshold keeps the conjunct for re-verification.
	msg = mustExec(t, db, `EXPLAIN SELECT sid FROM sensors WHERE PROB(temp IN [20, 30]) > 0.6`).Message
	if !strings.Contains(msg, "[re-verified]") {
		t.Errorf("GT probe not re-verified:\n%s", msg)
	}
	// An unindexable query reports the scan fallback.
	msg = mustExec(t, db, `EXPLAIN SELECT sid FROM sensors WHERE PROB(temp IN [20, 30]) < 0.6`).Message
	if !strings.Contains(msg, "access: scan") {
		t.Errorf("LT threshold should scan:\n%s", msg)
	}
	// A comparison flooring the probed column disables the PTI.
	msg = mustExec(t, db, `EXPLAIN SELECT sid FROM sensors WHERE temp < 25 AND PROB(temp IN [20, 30]) >= 0.6`).Message
	if !strings.Contains(msg, "access: scan (uncertain column floored by comparison)") {
		t.Errorf("floored query should scan:\n%s", msg)
	}
}

// TestExplainRunsPipelinedTree: EXPLAIN drains the filter tree a SELECT runs,
// so for the whole corpus its "rows:" line is the statement's row count
// ahead of ORDER BY / LIMIT and its planner counters (probes, pruned,
// fallbacks, vectorized and scalar tuples) are the statement's own; a filter
// stage failing mid-drain closes every operator.
func TestExplainRunsPipelinedTree(t *testing.T) {
	queries := append(append([]string{}, differentialQueries...), streamDifferentialQueries...)
	for _, indexed := range []bool{false, true} {
		db := Open()
		plannerFixture(t, db)
		if indexed {
			mustExec(t, db, `ANALYZE sensors`)
			mustExec(t, db, `CREATE INDEX ON sensors (temp)`)
			mustExec(t, db, `CREATE INDEX ON sensors (sid)`)
		}
		for _, q := range queries {
			stmt, err := Parse(q)
			if err != nil {
				t.Fatal(err)
			}
			s := stmt.(SelectStmt)
			s.OrderCol, s.Limit, s.Agg, s.Star = "", nil, "", true // the filter stages alone
			want, err := db.ExecStmt(s)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			got := mustExec(t, db, `EXPLAIN `+q)
			if !strings.Contains(got.Message, fmt.Sprintf("\nrows: %d\n", want.Affected)) {
				t.Errorf("indexed=%v EXPLAIN %s: want rows: %d in\n%s", indexed, q, want.Affected, got.Message)
			}
			if got.Planner != want.Planner {
				t.Errorf("indexed=%v EXPLAIN %s: counters %+v, statement's %+v", indexed, q, got.Planner, want.Planner)
			}
		}
		for _, q := range []string{
			`EXPLAIN SELECT * FROM sensors WHERE sid < 90 AND PROB(sid IN [0, 1]) > 0.5`, // threshold over a certain column
			`EXPLAIN SELECT sid FROM sensors WHERE PROB(temp) > 0.1 AND PROB(nope) > 0.5`,
		} {
			if _, err := db.Exec(q); err == nil {
				t.Errorf("%s: expected the threshold to fail mid-drain", q)
			}
		}
		if n := pipe.OpenOperators(); n != 0 {
			t.Fatalf("indexed=%v: pipe.OpenOperators() = %d", indexed, n)
		}
	}
}

func TestPlannerCountersOnResult(t *testing.T) {
	db := Open()
	plannerFixture(t, db)
	mustExec(t, db, `CREATE INDEX ON sensors (temp)`)
	r := mustExec(t, db, `SELECT sid FROM sensors WHERE PROB(temp IN [20, 24]) >= 0.7`)
	if r.Planner.IndexProbes != 1 || r.Planner.IndexPruned == 0 {
		t.Errorf("counters = %+v", r.Planner)
	}
	// Join queries fall back to the naive path and say so.
	mustExec(t, db, `CREATE TABLE sites (site TEXT, zone INT)`)
	mustExec(t, db, `INSERT INTO sites (site, zone) VALUES ('s0', 1), ('s1', 2)`)
	r = mustExec(t, db, `SELECT sensors.sid FROM sensors, sites WHERE sensors.site = sites.site`)
	if r.Planner.PlannerFallbacks == 0 {
		t.Error("multi-table query over an indexed table did not count a fallback")
	}
	// A single-table scan is a fallback only when its WHERE clause names an
	// indexed column the planner could not probe.
	mustExec(t, db, `CREATE INDEX ON sensors (sid)`)
	for q, want := range map[string]uint64{
		`SELECT sid FROM sensors WHERE site = 's1' ORDER BY sid LIMIT 3`: 0, // no index on site
		`SELECT sid FROM sensors WHERE PROB(hum IN [45, 55]) >= 0.3`:     0, // nor on hum
		`SELECT sid FROM sensors`:                                        0,
		`SELECT sid FROM sensors WHERE sid = 'x'`:                        1, // unindexable literal
		`SELECT sid FROM sensors WHERE sid <> 4`:                         1, // operator with no btree path
		`SELECT sid FROM sensors WHERE PROB(temp IN [20, 24]) < 0.7`:     1, // threshold the PTI cannot serve
		`SELECT sid FROM sensors WHERE sid = 2.5`:                        0, // served from the spill list
	} {
		if got := mustExec(t, db, q).Planner.PlannerFallbacks; got != want {
			t.Errorf("%s: %d fallbacks, want %d", q, got, want)
		}
	}
	if r = mustExec(t, db, `SELECT sid FROM sensors WHERE sid = 2.5`); r.Planner.IndexProbes != 1 || r.Affected != 0 {
		t.Errorf("non-integral equality: %+v, %d rows", r.Planner, r.Affected)
	}
}

// TestExplainFoldedRange: comparisons on one btree column, literal on either
// side, fold into one key range on the access line; a lone comparison keeps
// the line it always had.
func TestExplainFoldedRange(t *testing.T) {
	db := Open()
	plannerFixture(t, db)
	mustExec(t, db, `CREATE INDEX ON sensors (sid)`)
	for q, want := range map[string]string{
		`SELECT sid FROM sensors WHERE sid >= 100 AND sid < 150`:           "access: btree(sid) [100, 149] [re-verified]",
		`SELECT sid FROM sensors WHERE 5 < sid AND sid <= 9.5`:             "access: btree(sid) [6, 9] [re-verified]",
		`SELECT sid FROM sensors WHERE sid > 10 AND sid < 5`:               "access: btree(sid) [] [re-verified]",
		`SELECT sid FROM sensors WHERE site = 's0' AND 30 > sid`:           "access: btree(sid) < 30 [re-verified]",
		`SELECT sid FROM sensors WHERE sid = 55`:                           "access: btree(sid) = 55 [re-verified]",
		`SELECT sid FROM sensors WHERE sid = 'x'`:                          "access: scan (no indexable conjunct)",
		`SELECT sid FROM sensors WHERE sid >= 20 AND PROB(temp) > 0.5`:     "access: btree(sid) >= 20 [re-verified]",
		`SELECT sid FROM sensors WHERE sid >= 20 AND sid = 25 AND sid < 9`: "access: btree(sid) [] [re-verified]",
	} {
		msg := mustExec(t, db, `EXPLAIN `+q).Message
		if !strings.Contains(msg, want+"\n") {
			t.Errorf("EXPLAIN %s:\n%s\nwant line %q", q, msg, want)
		}
	}
	// Candidates are the range, not half the table: of 120 rows the probe
	// keeps the 45 non-NULL sids in [50, 100) and the 11 spilled NULLs.
	r := mustExec(t, db, `SELECT sid FROM sensors WHERE sid >= 50 AND sid < 100`)
	if r.Planner.IndexPruned != 120-45-11 || r.Affected != 45 {
		t.Errorf("two-sided range pruned %d rows and returned %d", r.Planner.IndexPruned, r.Affected)
	}
}

func TestParseAnalyzeCreateIndex(t *testing.T) {
	if s, err := Parse(`ANALYZE`); err != nil || s.(Analyze).Table != "" {
		t.Errorf("ANALYZE parse = %v, %v", s, err)
	}
	if s, err := Parse(`analyze readings;`); err != nil || s.(Analyze).Table != "readings" {
		t.Errorf("analyze readings parse = %v, %v", s, err)
	}
	s, err := Parse(`CREATE INDEX foo ON readings (value)`)
	if err != nil {
		t.Fatal(err)
	}
	ci := s.(CreateIndex)
	if ci.Name != "foo" || ci.Table != "readings" || ci.Col != "value" {
		t.Errorf("parse = %+v", ci)
	}
	if s, err = Parse(`CREATE INDEX ON readings (value)`); err != nil {
		t.Fatal(err)
	}
	if ci = s.(CreateIndex); ci.Name != "readings_value_idx" {
		t.Errorf("default name = %q", ci.Name)
	}
	for _, bad := range []string{
		`CREATE INDEX`,
		`CREATE INDEX ON readings`,
		`CREATE INDEX ON readings ()`,
		`CREATE INDEX ON (value)`,
		`ANALYZE 42`,
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("%q parsed", bad)
		}
	}
}
