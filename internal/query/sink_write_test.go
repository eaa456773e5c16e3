package query

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"probdb/internal/core"
)

// TestSinkWritesOwnTable: a SELECT runs with no catalog lock held, so its
// sink may INSERT into and DELETE from the very table it streams, on the
// same DB. The stream must return promptly and deliver exactly the rows
// present when the statement was planned — none of the sink's inserts, all
// of the rows it deleted — over a full scan and an index probe alike.
func TestSinkWritesOwnTable(t *testing.T) {
	const rows = 600 // > 2 batches, so the sink writes between batches
	for _, indexed := range []bool{false, true} {
		t.Run(fmt.Sprintf("indexed=%v", indexed), func(t *testing.T) {
			db := Open()
			mustExec(t, db, `CREATE TABLE t (k INT, x FLOAT UNCERTAIN)`)
			var b strings.Builder
			for k := 0; k < rows; k++ {
				if k > 0 {
					b.WriteString(", ")
				}
				fmt.Fprintf(&b, "(%d, GAUSSIAN(%d, 1))", k, k%40)
			}
			mustExec(t, db, `INSERT INTO t (k, x) VALUES `+b.String())
			query := `SELECT k FROM t`
			if indexed {
				mustExec(t, db, `CREATE INDEX ON t (k)`)
				query = fmt.Sprintf(`SELECT k FROM t WHERE k < %d`, rows+1000)
			}

			var seen []int64
			writes := 0
			sink := func(hdr *core.Table, batch []*core.Tuple) error {
				for _, tup := range batch {
					v, _ := hdr.Value(tup, "k")
					seen = append(seen, v.I)
				}
				// Insert a row the stream must not see, and delete one it
				// has not reached yet, which it must still deliver.
				writes++
				if _, err := db.Exec(fmt.Sprintf(`INSERT INTO t (k, x) VALUES (%d, GAUSSIAN(1, 1))`, rows+writes)); err != nil {
					return err
				}
				_, err := db.Exec(fmt.Sprintf(`DELETE FROM t WHERE k = %d`, rows-writes))
				return err
			}
			done := make(chan error, 1)
			var res *Result
			go func() {
				var err error
				res, err = db.ExecStream(context.Background(), query, sink)
				done <- err
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("ExecStream blocked: its sink's writes wait on the catalog lock the stream holds")
			}
			if indexed && res.Planner.IndexProbes != 1 {
				t.Fatalf("%s: %d index probes, want 1", query, res.Planner.IndexProbes)
			}
			if writes < 2 || len(seen) != rows || res.Affected != rows {
				t.Fatalf("%d sink writes; streamed %d rows (Affected %d), want the %d planned", writes, len(seen), res.Affected, rows)
			}
			for i, k := range seen {
				if k != int64(i) {
					t.Fatalf("row %d is k=%d, want %d", i, k, i)
				}
			}
			after := mustExec(t, db, `SELECT k FROM t`)
			if after.Table.Len() != rows {
				t.Fatalf("after the stream: %d rows, want %d (each sink call inserts one and deletes one)", after.Table.Len(), rows)
			}
		})
	}
}

// TestAggregateBesideWriter: an aggregate drains its input with no catalog
// lock held while a writer inserts and deletes rows two at a time, each pair
// in one statement. Every COUNT must see a whole number of pairs.
func TestAggregateBesideWriter(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE t (k INT, x FLOAT UNCERTAIN)`)
	mustExec(t, db, `CREATE INDEX ON t (k)`)
	mustExec(t, db, `INSERT INTO t (k, x) VALUES (0, GAUSSIAN(0, 1)), (1, GAUSSIAN(1, 1))`)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := db.Exec(fmt.Sprintf(`INSERT INTO t (k, x) VALUES (%d, GAUSSIAN(2, 1)), (%d, GAUSSIAN(3, 1))`, 2*i, 2*i+1)); err != nil {
				t.Error(err)
				return
			}
			if i%3 == 0 {
				if _, err := db.Exec(fmt.Sprintf(`DELETE FROM t WHERE k >= %d AND k < %d`, 2*i-4, 2*i-2)); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for i := 0; i < 200; i++ {
		for _, q := range []string{`SELECT COUNT(*) FROM t`, `SELECT COUNT(*) FROM t WHERE k >= 0`} {
			res, err := db.ExecStream(context.Background(), q, func(*core.Table, []*core.Tuple) error {
				return fmt.Errorf("%s: an aggregate called the sink", q)
			})
			if err != nil {
				t.Fatal(err)
			}
			var mean float64
			at := strings.Index(res.Message, "mean=")
			if at < 0 {
				t.Fatalf("%s: %q", q, res.Message)
			}
			if _, err := fmt.Sscanf(res.Message[at:], "mean=%g", &mean); err != nil {
				t.Fatalf("%s: %q: %v", q, res.Message, err)
			}
			if n := int(mean); float64(n) != mean || n%2 != 0 || n < 2 {
				t.Fatalf("%s: %q counts a torn pair", q, res.Message)
			}
		}
	}
	close(stop)
	wg.Wait()
}
