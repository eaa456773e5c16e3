package query

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"probdb/internal/core"
)

// freed counts the watched base pdfs the collector has found unreachable.
type freed struct{ n atomic.Int64 }

// watch watches the base pdf behind column col of each tuple.
func (f *freed) watch(t *testing.T, tbl *core.Table, col string, tups []*core.Tuple) {
	t.Helper()
	for _, tup := range tups {
		if err := tbl.WatchBase(tup, col, func() { f.n.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
}

// watchTables watches every base pdf of the named tables' rows and returns
// how many that is.
func (f *freed) watchTables(t *testing.T, db *DB, names ...string) int {
	t.Helper()
	n := 0
	for _, name := range names {
		tbl, ok := db.Table(name)
		if !ok {
			t.Fatalf("no table %s", name)
		}
		for _, set := range tbl.DepSets() {
			f.watch(t, tbl, set[0], tbl.Tuples())
			n += tbl.Len()
		}
	}
	return n
}

// after collects garbage until want watched pdfs are freed (or two seconds
// pass), then twice more so that an over-count shows, and returns the count.
func (f *freed) after(want int64) int64 {
	for deadline := time.Now().Add(2 * time.Second); f.n.Load() < want && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 2; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	return f.n.Load()
}

// TestComparisonWithCertainColumnFreesItsUnitPdfs: a comparison between an
// uncertain and a certain column (x < k) promotes k into the joint as a unit
// pdf of its own (§III-C case 2(b)). The unit pdfs belong to the statement's
// rows: once the statement is over and the rows are deleted, neither the
// rows' base pdfs nor any unit pdf is reachable.
func TestComparisonWithCertainColumnFreesItsUnitPdfs(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE t (rid INT, x FLOAT UNCERTAIN, k FLOAT)`)
	mustExec(t, db, `INSERT INTO t (rid, x, k) VALUES (1, GAUSSIAN(10, 4), 12), (2, DISCRETE(3:0.5, 30:0.5), 20)`)
	var f freed
	f.watchTables(t, db, "t")
	units := 0
	sink := func(hdr *core.Table, b []*core.Tuple) error {
		f.watch(t, hdr, "k", b)
		units += len(b)
		return nil
	}
	if _, err := db.ExecStream(context.Background(), `SELECT * FROM t WHERE x < k`, sink); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, db, `SELECT rid, k FROM t WHERE x < k`)
	f.watch(t, res.Table, "k", res.Table.Tuples())
	units += res.Table.Len()
	if units != 4 {
		t.Fatalf("%d promoted rows, want 4", units)
	}
	res = nil
	mustExec(t, db, `DELETE FROM t`)
	if n := f.after(6); n != 6 {
		t.Errorf("after the SELECTs and DELETE: %d of 6 base pdfs freed (2 rows, 4 unit pdfs)", n)
	}
}

// TestExecResultKeepsItsRowsUntilDropped: a library Exec result holds the
// history of its rows — deleting them from the table leaves their base pdfs
// as phantoms the result can still read — and dropping the result frees
// them.
func TestExecResultKeepsItsRowsUntilDropped(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE t (rid INT, x FLOAT UNCERTAIN)`)
	var b strings.Builder
	b.WriteString(`INSERT INTO t (rid, x) VALUES `)
	for i := 0; i < 40; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		x := "DISCRETE(10:1)" // kept by x < 50
		if i%4 == 0 {
			x = "DISCRETE(60:1)" // floored away
		}
		fmt.Fprintf(&b, "(%d, %s)", i, x)
	}
	mustExec(t, db, b.String())
	var f freed
	f.watchTables(t, db, "t")
	res := mustExec(t, db, `SELECT rid, x FROM t WHERE x < 50`)
	if res.Table.Len() != 30 {
		t.Fatalf("%d rows, want 30", res.Table.Len())
	}
	mustExec(t, db, `DELETE FROM t`)
	if n := f.after(10); n != 10 {
		t.Errorf("with the result held: %d base pdfs freed, want the 10 rows it does not hold", n)
	}
	if got := res.Table.Render(); strings.Count(got, "x=") != 30 {
		t.Errorf("the held result lost rows:\n%s", got)
	}
	res = nil
	if n := f.after(40); n != 40 {
		t.Errorf("after dropping the result: %d of 40 base pdfs freed", n)
	}
}

// TestHeldLimitedResultFreesTheRestOfItsBatch: a floor builds its batch's
// survivors in shared slabs, so a held result keeping a few rows of a batch
// — LIMIT, ORDER BY a certain column LIMIT k, ORDER BY PROB LIMIT k — must
// not keep the rest of the batch reachable: after a DELETE, the base pdf of
// every row the result does not hold is freed.
func TestHeldLimitedResultFreesTheRestOfItsBatch(t *testing.T) {
	for _, c := range []struct {
		sql  string
		keep int
	}{
		{`SELECT rid, x FROM t WHERE x < 50 LIMIT 1`, 1},
		{`SELECT rid, x FROM t WHERE x < 50 ORDER BY rid DESC LIMIT 2`, 2},
		{`SELECT rid, x FROM t WHERE x < 50 ORDER BY PROB(x) DESC LIMIT 3`, 3},
	} {
		db := Open()
		mustExec(t, db, `CREATE TABLE t (rid INT, x FLOAT UNCERTAIN)`)
		var b strings.Builder
		b.WriteString(`INSERT INTO t (rid, x) VALUES `)
		for i := 0; i < 40; i++ {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, GAUSSIAN(%d, 4))", i, 30+i)
		}
		mustExec(t, db, b.String())
		var f freed
		f.watchTables(t, db, "t")
		res := mustExec(t, db, c.sql)
		if res.Table.Len() != c.keep {
			t.Fatalf("%s: %d rows, want %d", c.sql, res.Table.Len(), c.keep)
		}
		mustExec(t, db, `DELETE FROM t`)
		if n, want := f.after(int64(40-c.keep)), int64(40-c.keep); n != want {
			t.Errorf("%s held: %d base pdfs freed, want the %d rows it does not hold", c.sql, n, want)
		}
		if got := res.Table.Render(); strings.Count(got, "x=") != c.keep {
			t.Errorf("%s: the held result lost rows:\n%s", c.sql, got)
		}
		res = nil
		if n := f.after(40); n != 40 {
			t.Errorf("%s dropped: %d of 40 base pdfs freed", c.sql, n)
		}
	}
}
