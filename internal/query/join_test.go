package query

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"probdb/internal/core"
	"probdb/internal/pipe"
)

// pushdownFixture loads joinable tables with every value class the join
// path has to cope with: r's key is a FLOAT with NULLs against s's INT sid
// (one of them NULL too), and pdfs are Gaussian, uniform and partial
// discrete.
func pushdownFixture(t *testing.T, db *DB) {
	t.Helper()
	mustExec(t, db, `CREATE TABLE r (rid INT, k FLOAT, grp INT, x FLOAT UNCERTAIN, score FLOAT)`)
	mustExec(t, db, `CREATE TABLE s (sid INT, y FLOAT UNCERTAIN, zone INT)`)
	mustExec(t, db, `CREATE TABLE z (zone INT, label TEXT, w FLOAT UNCERTAIN)`)
	for i := 0; i < 60; i++ {
		k := fmt.Sprintf("%d.0", i%12)
		if i%7 == 3 {
			k = "NULL"
		}
		x := fmt.Sprintf("GAUSSIAN(%d, 4)", 10+i%20)
		switch i % 5 {
		case 1:
			x = fmt.Sprintf("UNIFORM(%d, %d)", 8+i%15, 14+i%15)
		case 3:
			x = fmt.Sprintf("DISCRETE(%d:0.25, %d:0.5, %d:0.125)", 12+i%9, 13+i%9, 14+i%9)
		}
		mustExec(t, db, fmt.Sprintf(`INSERT INTO r (rid, k, grp, x, score) VALUES (%d, %s, %d, %s, %g)`,
			i, k, i%3, x, float64(i)*1.5))
	}
	for i := 0; i < 13; i++ {
		sid := fmt.Sprint(i)
		y := fmt.Sprintf("GAUSSIAN(%d, 3)", 12+i)
		switch {
		case i == 12:
			sid = "NULL"
		case i%4 == 2:
			y = fmt.Sprintf("UNIFORM(%d, %d)", 10+i, 18+i)
		}
		mustExec(t, db, fmt.Sprintf(`INSERT INTO s (sid, y, zone) VALUES (%s, %s, %d)`, sid, y, i%4))
	}
	mustExec(t, db, `CREATE TABLE e (eid INT, v FLOAT UNCERTAIN)`)
	mustExec(t, db, `INSERT INTO e (eid, v) VALUES (2, DISCRETE(14:0.5)), (3, GAUSSIAN(14, 1))`)
	for i, label := range []string{"a", "b", "c", "d"} {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO z (zone, label, w) VALUES (%d, '%s', GAUSSIAN(%d, 9))`, i, label, 14+2*i))
	}
}

// TestJoinPushdownMatchesReference: a multi-table statement whose
// single-entry conjuncts run under the join renders the reference
// evaluator's rows — cross product or hash join of the whole inputs, then
// every conjunct — schema, phantoms, pdfs and order included, at sequential
// and parallel execution. Only the derived-table name, which spells the tree
// shape, differs.
func TestJoinPushdownMatchesReference(t *testing.T) {
	queries := []string{
		// A certain conjunct on the left, the right, and both sides.
		`SELECT r.rid, s.sid FROM r, s WHERE r.k = s.sid AND r.score < 30`,
		`SELECT r.rid, s.sid FROM r, s WHERE r.k = s.sid AND s.zone >= 2`,
		`SELECT * FROM r, s WHERE r.k = s.sid AND s.zone <> 1 AND r.grp = 1 AND r.score >= 12`,
		`SELECT * FROM r, s WHERE r.grp < r.score AND r.k = s.sid AND 2 > s.zone`,
		// A probability threshold on one side.
		`SELECT * FROM r, s WHERE r.k = s.sid AND PROB(s.y IN [10, 20]) >= 0.3 AND r.score < 60`,
		`SELECT r.rid, r.x FROM r, s WHERE r.k = s.sid AND PROB(r.x) > 0.9 AND PROB(s.y) >= 0.5`,
		// A one-side floor, and a threshold behind it, must not move.
		`SELECT * FROM r, s WHERE r.k = s.sid AND r.x < 15 AND r.score < 40`,
		`SELECT r.rid, r.x FROM r, s WHERE r.k = s.sid AND r.x < 15 AND PROB(r.x) > 0.3 AND PROB(s.y) > 0.5`,
		`SELECT r.rid FROM r, s WHERE r.k = s.sid AND r.grp < r.x AND r.score < 40`,
		// Two-entry conjuncts stay above: uncertain, promoting, and certain.
		`SELECT r.rid, s.sid FROM r, s WHERE r.k = s.sid AND r.x < s.y AND r.score < 45`,
		`SELECT r.rid, s.sid FROM r, s WHERE r.k = s.sid AND r.x >= s.y AND s.zone < 3`,
		`SELECT r.rid, s.sid FROM r, s WHERE r.k = s.sid AND r.score < s.y AND r.grp = 0`,
		`SELECT r.rid, s.sid FROM r, s WHERE r.k = s.sid AND r.grp <= s.zone AND r.score < 20`,
		// No equi key: the cross product.
		`SELECT * FROM r, s WHERE r.score < 6 AND s.zone = 1 AND r.x < s.y`,
		`SELECT r.rid, s.sid FROM r, s WHERE r.score < 5`,
		`SELECT r.rid, e.eid FROM r, e WHERE r.score < 5`,
		`SELECT r.rid, e.eid FROM r, e WHERE r.k = e.eid AND r.score < 30`,
		`SELECT r.rid, e.eid FROM r, e WHERE PROB(r.x) > 0.9 AND r.rid < 4`,
		`SELECT r.rid, s.sid FROM r, s WHERE PROB(r.x) > 0.9 AND r.rid < 9`,
		// Three entries.
		`SELECT r.rid, s.sid, z.label FROM r, s, z WHERE r.k = s.sid AND s.zone = z.zone AND z.label = 'b' AND r.score < 50 AND r.x < z.w`,
		`SELECT * FROM z, s, r WHERE z.zone = s.zone AND r.k = s.sid AND r.grp = 2 AND z.label <> 'a' AND PROB(z.w IN [10, 20]) >= 0.5`,
		// A pushed conjunct that empties a side.
		`SELECT * FROM r, s WHERE r.k = s.sid AND r.score < -1`,
		`SELECT * FROM r, s WHERE r.k = s.sid AND s.zone > 99 AND r.x < s.y`,
		`SELECT r.rid FROM r, s WHERE s.zone > 99`,
		// Ordering, limits and aggregates on top.
		`SELECT r.rid, s.sid FROM r, s WHERE r.k = s.sid AND r.score < 70 ORDER BY r.rid DESC LIMIT 5`,
		`SELECT r.rid FROM r, s WHERE r.k = s.sid AND r.x < s.y AND r.score < 70 ORDER BY PROB(r.x) DESC LIMIT 4`,
		`SELECT r.rid FROM r, s WHERE r.k = s.sid AND s.zone >= 1 LIMIT 7`,
		`SELECT COUNT(*) FROM r, s WHERE r.k = s.sid AND r.score < 30`,
		`SELECT SUM(r.x) FROM r, s WHERE r.k = s.sid AND r.score < 30 AND s.zone = 2`,
	}
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			atProcs(t, par)
			db := Open()
			pushdownFixture(t, db)
			for _, q := range queries {
				want := renderSansName(referenceSelect(t, db, q))
				got := renderSansName(mustExec(t, db, q))
				if got != want {
					t.Errorf("%s:\nreference:\n%s\npipelined:\n%s", q, want, got)
				}
			}
			if n := pipe.OpenOperators(); n != 0 {
				t.Fatalf("pipe.OpenOperators() = %d after the run", n)
			}
		})
	}
}

// TestJoinPushdownPlacement: EXPLAIN names, per FROM entry, the conjuncts
// that run under the join, and the ones left above it — floors, thresholds
// behind a floor and anything naming two entries.
func TestJoinPushdownPlacement(t *testing.T) {
	db := Open()
	pushdownFixture(t, db)
	for _, c := range []struct {
		sql   string
		lines []string
	}{
		{`SELECT a.rid FROM r AS a, s WHERE a.k = s.sid AND a.x < s.y AND a.score < 30 AND s.zone >= 2`, []string{
			"plan: π(σ(σ(r)⋈σ(s)))",
			"under the join, on a: a.score < 30",
			"under the join, on s: s.zone >= 2",
			"above the join: a.k = s.sid AND a.x < s.y",
		}},
		{`SELECT * FROM r, s WHERE r.k = s.sid AND r.x < 15 AND PROB(r.x) > 0.3 AND PROB(s.y) > 0.5`, []string{
			"under the join, on r: -",
			"under the join, on s: PROB(s.y) > 0.5",
			"above the join: r.k = s.sid AND r.x < 15 AND PROB(r.x) > 0.3",
		}},
		{`SELECT * FROM r, s WHERE r.score < 5`, []string{
			"plan: σ(r)×s",
			"under the join, on r: r.score < 5",
			"above the join: -",
		}},
	} {
		msg := mustExec(t, db, "EXPLAIN "+c.sql).Message
		for _, line := range c.lines {
			if !strings.Contains(msg, line) {
				t.Errorf("EXPLAIN %s: missing %q in\n%s", c.sql, line, msg)
			}
		}
	}
}

// TestEquiJoinKeysAgreeWithEqual: the hash join pairs exactly the keys the
// cross product followed by the comparison pairs — an INT against the FLOAT
// of the same number however either prints (1e+06), text with text, and NULL
// with nothing.
func TestEquiJoinKeysAgreeWithEqual(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE a (i INT, t TEXT)`)
	mustExec(t, db, `CREATE TABLE b (f FLOAT, t TEXT)`)
	mustExec(t, db, `INSERT INTO a (i, t) VALUES (1000000, 'x'), (5, 'y'), (0, 'z'), (9007199254740993, 'x'), (NULL, NULL)`)
	mustExec(t, db, `INSERT INTO b (f, t) VALUES (1000000.0, 'x'), (5.0, 'q'), (0.0, 'z'), (9007199254740992.0, 'w'), (NULL, NULL), (7.5, 'y')`)
	for _, c := range []struct {
		hash, filter string
		rows         int
	}{
		{`SELECT a.i, b.f FROM a, b WHERE a.i = b.f`, `SELECT a.i, b.f FROM a, b WHERE a.i <= b.f AND a.i >= b.f`, 4},
		{`SELECT a.i, b.f FROM a, b WHERE a.t = b.t`, `SELECT a.i, b.f FROM a, b WHERE a.t <= b.t AND a.t >= b.t`, 4},
	} {
		hash, filter := mustExec(t, db, c.hash), mustExec(t, db, c.filter)
		if !strings.Contains(hash.Table.Name, "⋈") || !strings.Contains(filter.Table.Name, "×") {
			t.Fatalf("%s ran as %s, %s as %s", c.hash, hash.Table.Name, c.filter, filter.Table.Name)
		}
		if hash.Affected != c.rows || renderRows(hash) != renderRows(filter) {
			t.Errorf("%s: %d rows\n%swant %d, the rows of the cross product under the same comparison:\n%s",
				c.hash, hash.Affected, renderRows(hash), c.rows, renderRows(filter))
		}
	}
}

// TestJoinTakesNoRegistryReferences: a join statement reads its FROM entries
// as views, so once it has run, deleting the rows leaves none of their base
// pdfs reachable.
func TestJoinTakesNoRegistryReferences(t *testing.T) {
	db := Open()
	pushdownFixture(t, db)
	var f freed
	if n := f.watchTables(t, db, "r", "s", "z", "e"); n != 60+13+4+2 {
		t.Fatalf("fixture: %d base pdfs", n)
	}
	rows := 0
	for _, q := range []string{
		`SELECT * FROM r, s WHERE r.k = s.sid AND r.x < s.y AND r.score < 60`,
		`SELECT * FROM r, s, z WHERE s.zone = z.zone AND r.grp = 1`,
	} {
		if _, err := db.ExecStream(context.Background(), q, func(_ *core.Table, b []*core.Tuple) error {
			rows += len(b)
			return nil
		}); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	if rows == 0 {
		t.Fatal("the joins returned nothing")
	}
	mustExec(t, db, `SELECT r.rid FROM r, s WHERE r.k = s.sid AND r.score < 60`)
	for _, tbl := range []string{"r", "s", "z", "e"} {
		mustExec(t, db, `DELETE FROM `+tbl)
	}
	if n := f.after(79); n != 79 {
		t.Errorf("after join and DELETE: %d of 79 base pdfs freed", n)
	}
}

// TestJoinPairsFollowSurvivors: the benchmark's join shape — hash key, a
// cross floor over the pairs and a certain cut on the probe side — builds
// pairs for the rows the cut keeps, not for the table: at a fixed number of
// survivors it allocates the same at 2 000 and at 20 000 probe rows. A pair
// built per probe row, or a copy of every input tuple, shows up here
// as tens of thousands.
func TestJoinPairsFollowSurvivors(t *testing.T) {
	allocs := func(n int) float64 {
		db := scanReadings(t, n)
		// The two cuts keep the same rows of the first 2 000 at either size.
		sql := `SELECT r.rid, s.sid FROM readings AS r, sensors AS s WHERE r.sensor = s.sid AND r.value < s.drift AND r.score < 20 AND r.rid < 2000`
		if got := mustExec(t, db, sql).Affected; got == 0 {
			t.Fatalf("%s: no rows", sql)
		}
		return testing.AllocsPerRun(5, func() { mustExec(t, db, sql) })
	}
	small, big := allocs(2000), allocs(20000)
	if d := big - small; d > 16 || d < -16 {
		t.Errorf("join: %v allocs at 2 000 probe rows, %v at 20 000", small, big)
	}
}
