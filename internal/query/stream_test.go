package query

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"probdb/internal/core"
	"probdb/internal/pipe"
)

// renderFull is the strictest comparison: the whole rendered table, header
// (derived-table name, schema, phantoms) included. The operator tree must
// reproduce the reference evaluator's operator-chain names too.
func renderFull(r *Result) string {
	if r.Table == nil {
		return r.Message
	}
	return r.Table.Render()
}

// renderSansName is renderFull without the leading derived-table name, which
// under an index names the access path and the planner's conjunct order, and
// for a join the conjuncts that ran under it: schema, phantom list and every
// row still compare.
func renderSansName(r *Result) string {
	if r.Table == nil {
		return r.Message
	}
	return strings.TrimPrefix(r.Table.Render(), r.Table.Name)
}

// streamDifferentialQueries extends the planner battery with the stages the
// pipelined executor rewrites: ORDER BY (certain column with NULL keys, and
// PROB ranking), LIMIT (top-k heap vs sort+head), and projections after
// both.
var streamDifferentialQueries = []string{
	`SELECT * FROM sensors ORDER BY sid`,
	`SELECT * FROM sensors ORDER BY sid DESC`,
	`SELECT sid, site FROM sensors ORDER BY sid LIMIT 5`,
	`SELECT sid, site FROM sensors ORDER BY sid DESC LIMIT 17`,
	`SELECT sid FROM sensors ORDER BY sid LIMIT 115`,
	`SELECT sid FROM sensors ORDER BY sid LIMIT 500`,
	`SELECT * FROM sensors LIMIT 0`,
	`SELECT * FROM sensors LIMIT 10`,
	`SELECT site FROM sensors WHERE sid < 50 LIMIT 3`,
	`SELECT sid FROM sensors ORDER BY PROB(temp) DESC LIMIT 9`,
	`SELECT sid FROM sensors ORDER BY PROB(temp)`,
	`SELECT sid FROM sensors WHERE PROB(temp IN [15, 30]) >= 0.4 ORDER BY PROB(temp) DESC LIMIT 6`,
	`SELECT site FROM sensors WHERE temp < 25 ORDER BY sid LIMIT 8`,
}

// TestPipelinedMatchesReferenceDifferential: every query in the planner
// corpus plus the ordering/limit battery, executed by the pipelined operator
// tree, must render byte-identically to referenceSelect's full scan — with
// the morsel loops inline (par=1, GOMAXPROCS 1) and fanned out (par=4), and
// with indexes on (where only the derived-table name, which spells the
// access path, may differ).
func TestPipelinedMatchesReferenceDifferential(t *testing.T) {
	queries := append(append([]string{}, differentialQueries...), streamDifferentialQueries...)
	for _, par := range []int{1, 4} {
		for _, indexed := range []bool{false, true} {
			t.Run(fmt.Sprintf("par=%d,indexed=%v", par, indexed), func(t *testing.T) {
				atProcs(t, par)
				db := Open()
				plannerFixture(t, db)
				if indexed {
					mustExec(t, db, `ANALYZE sensors`)
					mustExec(t, db, `CREATE INDEX ON sensors (temp)`)
					mustExec(t, db, `CREATE INDEX ON sensors (sid)`)
				}
				render := renderFull
				if indexed {
					render = renderSansName
				}
				for _, q := range queries {
					want := render(referenceSelect(t, db, q))
					got := render(mustExec(t, db, q))
					if got != want {
						t.Errorf("%s:\nreference:\n%s\npipelined:\n%s", q, want, got)
					}
				}
				if n := pipe.OpenOperators(); n != 0 {
					t.Fatalf("pipe.OpenOperators() = %d after differential run", n)
				}
			})
		}
	}
	t.Run("gomaxprocs=1v8", pipelinedProcsIdentical)
}

// pipelinedProcsIdentical: the queries whose rows each build or floor a pdf
// — a floor_stream-shaped scan that floors every row, and a join-shaped
// statement whose cross-attribute floor runs Eval per pair — render the
// same bytes at GOMAXPROCS 1, where the morsel loops run inline, and at
// GOMAXPROCS 8, where they fan out over batches of more than 32 rows.
func pipelinedProcsIdentical(t *testing.T) {
	db := Open()
	plannerFixture(t, db)
	pushdownFixture(t, db)
	queries := []string{
		`SELECT sid, temp FROM sensors WHERE temp < 30`,
		`SELECT sid, temp, hum FROM sensors WHERE temp < 40 AND hum >= 45`,
		`SELECT r.rid, s.sid FROM r, s WHERE r.k = s.sid AND r.x < s.y AND r.score < 80`,
		`SELECT * FROM r, s WHERE r.x < s.y`,
	}
	for _, q := range queries {
		run := func(procs int) string {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			return renderFull(mustExec(t, db, q))
		}
		seq, par := run(1), run(8)
		if seq != par {
			t.Errorf("%s:\nGOMAXPROCS 1:\n%s\nGOMAXPROCS 8:\n%s", q, seq, par)
		}
		if want := renderSansName(referenceSelect(t, db, q)); renderSansName(mustExec(t, db, q)) != want {
			t.Errorf("%s: pipelined rows differ from the reference", q)
		}
	}
}

// joinFixture builds two joinable tables plus a pair for uncertain cross
// predicates.
func joinFixture(t *testing.T, db *DB) {
	t.Helper()
	mustExec(t, db, `CREATE TABLE s (id INT, x FLOAT UNCERTAIN)`)
	mustExec(t, db, `CREATE TABLE r (rid INT, name TEXT)`)
	for i := 0; i < 25; i++ {
		mustExec(t, db, fmt.Sprintf(
			`INSERT INTO s (id, x) VALUES (%d, GAUSSIAN(%d, 3))`, i%9, 10+i*3))
	}
	for i := 0; i < 12; i++ {
		mustExec(t, db, fmt.Sprintf(
			`INSERT INTO r (rid, name) VALUES (%d, 'n%d')`, i, i))
	}
	mustExec(t, db, `CREATE TABLE a (x FLOAT UNCERTAIN)`)
	mustExec(t, db, `CREATE TABLE b (y FLOAT UNCERTAIN)`)
	for i := 0; i < 6; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO a (x) VALUES (UNIFORM(%d, %d))`, i*5, i*5+10))
		mustExec(t, db, fmt.Sprintf(`INSERT INTO b (y) VALUES (GAUSSIAN(%d, 2))`, 8+i*4))
	}
}

// TestPipelinedJoinsDifferential: the streaming left-deep join trees
// (equi-join upgrade and cross product) match the reference's whole-table
// EquiJoin / CrossProduct chain byte for byte — schema, phantoms, rows and
// their order; the derived-table name spells the tree shape, which differs
// where a conjunct ran under the join (σ(σ(r)⋈s) for the reference's
// σ(r⋈s)).
func TestPipelinedJoinsDifferential(t *testing.T) {
	queries := []string{
		`SELECT s.id, r.name FROM s, r WHERE s.id = r.rid`,
		`SELECT * FROM s, r WHERE s.id = r.rid AND PROB(s.x IN [0, 60]) >= 0.3`,
		`SELECT s.id FROM s, r WHERE s.id = r.rid ORDER BY s.id DESC LIMIT 4`,
		`SELECT s.id, r.name FROM s, r LIMIT 30`,
		`SELECT * FROM a, b WHERE a.x < b.y`,
		`SELECT * FROM a, b WHERE a.x < b.y LIMIT 5`,
		`SELECT r.name, s.id FROM r, s WHERE s.id = r.rid AND r.rid < 6 ORDER BY r.name LIMIT 10`,
	}
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			atProcs(t, par)
			db := Open()
			joinFixture(t, db)
			for _, q := range queries {
				want := renderSansName(referenceSelect(t, db, q))
				got := renderSansName(mustExec(t, db, q))
				if got != want {
					t.Errorf("%s:\nreference:\n%s\npipelined:\n%s", q, want, got)
				}
			}
		})
	}
}

// TestExecStreamMatchesExec: the batches ExecStream hands the sink
// concatenate to exactly the rows Exec materializes, and large results
// arrive in multiple batches.
func TestExecStreamMatchesExec(t *testing.T) {
	db := Open()
	plannerFixture(t, db)
	q := `SELECT * FROM sensors WHERE sid >= 0`
	want := mustExec(t, db, q)

	var hdr *core.Table
	var got []*core.Tuple
	batches := 0
	res, err := db.ExecStream(context.Background(), q, func(h *core.Table, b []*core.Tuple) error {
		hdr = h
		got = append(got, b...)
		batches++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != want.Table.Len() {
		t.Fatalf("Affected = %d, want %d", res.Affected, want.Table.Len())
	}
	if w, g := want.Table.Render(), hdr.View(hdr.Name, got).Render(); w != g {
		t.Fatalf("streamed rows differ:\nexec:\n%s\nstream:\n%s", w, g)
	}
	if n := pipe.OpenOperators(); n != 0 {
		t.Fatalf("pipe.OpenOperators() = %d after stream", n)
	}
}

// TestExecStreamEmptyResult: the sink still learns the header exactly once.
func TestExecStreamEmptyResult(t *testing.T) {
	db := Open()
	plannerFixture(t, db)
	calls := 0
	_, err := db.ExecStream(context.Background(), `SELECT sid FROM sensors WHERE sid > 9000`,
		func(h *core.Table, b []*core.Tuple) error {
			calls++
			if h == nil {
				t.Fatal("nil header")
			}
			if len(b) != 0 {
				t.Fatalf("unexpected rows: %d", len(b))
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("sink called %d times, want 1", calls)
	}
}

// TestExecStreamNonSelect: statements without row output execute normally
// and never touch the sink.
func TestExecStreamNonSelect(t *testing.T) {
	db := Open()
	for _, sql := range []string{
		`CREATE TABLE t (x INT)`,
		`INSERT INTO t (x) VALUES (1)`,
		`SELECT COUNT(*) FROM t`,
	} {
		res, err := db.ExecStream(context.Background(), sql, func(h *core.Table, b []*core.Tuple) error {
			t.Fatalf("sink called for %q", sql)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Message == "" {
			t.Fatalf("%q: expected a message result", sql)
		}
	}
}

// TestExecStreamSinkErrorAborts: a failing sink (a dead client) aborts the
// tree mid-stream and leaves no operator open.
func TestExecStreamSinkErrorAborts(t *testing.T) {
	db := Open()
	plannerFixture(t, db)
	boom := errors.New("client went away")
	calls := 0
	_, err := db.ExecStream(context.Background(), `SELECT * FROM sensors`,
		func(h *core.Table, b []*core.Tuple) error {
			calls++
			return boom
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want sink error", err)
	}
	if calls != 1 {
		t.Fatalf("sink called %d times after first error", calls)
	}
	if n := pipe.OpenOperators(); n != 0 {
		t.Fatalf("pipe.OpenOperators() = %d after aborted stream", n)
	}
}

// TestOrderByNullsLast: NULL keys sort after every value in both
// directions, in the operator tree and in the reference, and a LIMIT below
// the non-NULL count never surfaces a NULL; and every key shape orders the
// same through the keyed breakers as through the reference.
func TestOrderByNullsLast(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE n (k INT, tag TEXT)`)
	for _, row := range []string{`(3, 'c')`, `(NULL, 'x')`, `(1, 'a')`, `(NULL, 'y')`, `(2, 'b')`} {
		mustExec(t, db, `INSERT INTO n (k, tag) VALUES `+row)
	}
	for _, mode := range []bool{true, false} {
		run := func(q string) *Result {
			if mode {
				return referenceSelect(t, db, q)
			}
			return mustExec(t, db, q)
		}
		for _, q := range []string{`SELECT tag FROM n ORDER BY k`, `SELECT tag FROM n ORDER BY k DESC`} {
			res := run(q)
			tags := make([]string, 0, res.Table.Len())
			for _, tup := range res.Table.Tuples() {
				v, _ := res.Table.Value(tup, "tag")
				tags = append(tags, v.Render())
			}
			// NULL-key rows ('x', 'y') must be the final two, in arrival order.
			if len(tags) != 5 || tags[3] != `"x"` || tags[4] != `"y"` {
				t.Fatalf("reference=%v %s: order = %v, want NULL keys last", mode, q, tags)
			}
		}
		res := run(`SELECT k, tag FROM n ORDER BY k DESC LIMIT 3`)
		for _, tup := range res.Table.Tuples() {
			v, _ := res.Table.Value(tup, "k")
			if v.IsNull() {
				t.Fatalf("reference=%v: LIMIT 3 of 3 non-NULL keys surfaced a NULL", mode)
			}
		}
	}

	// Every key shape through the keyed breakers against the reference
	// evaluator, as a full sort and as a top-k of every size: duplicate
	// keys (ties in arrival order), a FLOAT column holding INT and FLOAT
	// values, TEXT keys with NULLs, and ORDER BY PROB over differing masses.
	mustExec(t, db, `CREATE TABLE o (g INT, f FLOAT, tag TEXT, x FLOAT UNCERTAIN)`)
	for i := 0; i < 40; i++ {
		f, tag := fmt.Sprint(i*7%11), fmt.Sprintf(`'t%d'`, i*5%9)
		if i%2 == 1 {
			f += ".5"
		}
		if i%6 == 4 {
			f, tag = "NULL", "NULL"
		}
		mustExec(t, db, fmt.Sprintf(`INSERT INTO o (g, f, tag, x) VALUES (%d, %s, %s, GAUSSIAN(%d, 4))`, i%3, f, tag, i))
	}
	for _, order := range []string{`g`, `f`, `tag`, `PROB(x)`} {
		for _, dir := range []string{``, ` DESC`} {
			for _, limit := range []string{``, ` LIMIT 0`, ` LIMIT 1`, ` LIMIT 7`, ` LIMIT 40`, ` LIMIT 99`} {
				q := `SELECT g, f, tag, x FROM o WHERE x < 20 ORDER BY ` + order + dir + limit
				if want, got := referenceSelect(t, db, q).String(), mustExec(t, db, q).String(); want != got {
					t.Fatalf("%s:\nreference:\n%s\nexecutor:\n%s", q, want, got)
				}
			}
		}
	}
	for _, q := range []string{`SELECT g FROM o ORDER BY PROB(nope)`, `SELECT g FROM o ORDER BY PROB(nope) DESC LIMIT 3`} {
		if _, err := db.Exec(q); err == nil || !strings.Contains(err.Error(), `unknown column "nope"`) {
			t.Fatalf("%s: err = %v, want the first tuple's unknown-column error", q, err)
		}
	}
}

// TestStreamedSelectTakesNoRegistryReferences: every read shape — index
// probes, PROB filters, floors, top-k, LIMIT, aggregates and EXPLAIN — leaves
// nothing behind that reaches the rows it read, so deleting the rows
// afterwards leaves none of their base pdfs reachable.
func TestStreamedSelectTakesNoRegistryReferences(t *testing.T) {
	db := Open()
	plannerFixture(t, db)
	mustExec(t, db, `ANALYZE sensors`)
	mustExec(t, db, `CREATE INDEX ON sensors (sid)`)
	mustExec(t, db, `CREATE INDEX ON sensors (temp)`)
	var f freed
	if n := f.watchTables(t, db, "sensors"); n != 240 {
		t.Fatalf("fixture: %d base pdfs", n)
	}
	rows := 0
	for _, q := range []string{
		`SELECT sid FROM sensors WHERE sid = 12`,
		`SELECT sid, temp FROM sensors WHERE sid >= 10 AND sid < 40`,
		`SELECT sid FROM sensors WHERE PROB(temp IN [20, 30]) >= 0.5`,
		`SELECT site, hum FROM sensors WHERE PROB(hum IN [45, 60]) > 0.3`,
		`SELECT sid, temp FROM sensors WHERE temp < 25`,
		`SELECT sid FROM sensors WHERE temp < 25 ORDER BY PROB(temp) DESC LIMIT 7`,
		`SELECT * FROM sensors WHERE hum > 50 LIMIT 30`,
		`SELECT COUNT(*) FROM sensors WHERE PROB(temp IN [20, 30]) >= 0.5`,
		`SELECT SUM(temp) FROM sensors WHERE sid < 50`,
	} {
		if _, err := db.ExecStream(context.Background(), q, func(_ *core.Table, b []*core.Tuple) error {
			rows += len(b)
			return nil
		}); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	if rows == 0 {
		t.Fatal("the SELECTs returned nothing")
	}
	mustExec(t, db, `EXPLAIN SELECT sid FROM sensors WHERE temp < 25`)
	mustExec(t, db, `EXPLAIN SELECT sid FROM sensors WHERE sid = 12`)
	mustExec(t, db, `DELETE FROM sensors`)
	if n := f.after(240); n != 240 {
		t.Errorf("after the SELECTs and DELETE: %d of 240 base pdfs freed", n)
	}
}
