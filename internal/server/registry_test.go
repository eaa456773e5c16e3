package server

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRegistryTracksLiveRows is the history soak. Statements of every read
// shape — point, range, PTI, PROB, floor, a comparison with a certain column,
// aggregate and EXPLAIN — run over an indexed and an unindexed table, in
// autocommit and in a transaction, streamed through the server's sink, with
// a second session reading alongside; then every row they read is deleted.
// Every inserted row's base pdfs are watched, and after a collection exactly
// the deleted rows' pdfs are unreachable: nothing a statement read outlives
// it, the live rows keep theirs, and nothing the engine keeps between
// statements reaches a deleted row.
func TestRegistryTracksLiveRows(t *testing.T) {
	e, err := OpenEngine(EngineConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ses := e.NewSession()
	defer ses.Close()
	run := func(s *Session, sql string) {
		t.Helper()
		var frame []byte
		if _, _, err := s.ExecuteStream(context.Background(), sql, batchSink(&frame, func([]byte, bool) error { return nil })); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	var watched, freed atomic.Int64
	insert := func(name, sql string) {
		t.Helper()
		tbl, _ := e.DB().Table(name)
		from := tbl.Len()
		run(ses, sql)
		for _, tup := range tbl.Tuples()[from:] {
			for _, set := range tbl.DepSets() {
				if err := tbl.WatchBase(tup, set[0], func() { freed.Add(1) }); err != nil {
					t.Fatal(err)
				}
				watched.Add(1)
			}
		}
	}
	check := func(when string) {
		t.Helper()
		live := int64(0)
		for _, name := range e.DB().TableNames() {
			tbl, _ := e.DB().Table(name)
			live += int64(tbl.Len() * len(tbl.DepSets()))
		}
		want := watched.Load() - live
		for deadline := time.Now().Add(2 * time.Second); freed.Load() < want && time.Now().Before(deadline); {
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
		if got := freed.Load(); got != want {
			t.Fatalf("%s: %d base pdfs freed, want the %d of the deleted rows (%d live)", when, got, want, live)
		}
	}

	// The three-row repro: a point read, then deleting the row it read.
	for _, q := range []string{
		`CREATE TABLE r (rid INT, v FLOAT UNCERTAIN)`,
		`CREATE TABLE plain (rid INT, score FLOAT, v FLOAT UNCERTAIN, w FLOAT UNCERTAIN)`,
		`CREATE TABLE indexed (rid INT, score FLOAT, v FLOAT UNCERTAIN, w FLOAT UNCERTAIN)`,
		`CREATE INDEX ON indexed (rid)`,
		`CREATE INDEX ON indexed (v)`,
	} {
		run(ses, q)
	}
	insert("r", `INSERT INTO r (rid, v) VALUES (1, GAUSSIAN(1, 1)), (2, GAUSSIAN(2, 1)), (3, GAUSSIAN(3, 1))`)
	run(ses, `SELECT rid FROM r WHERE rid = 2`)
	run(ses, `DELETE FROM r WHERE rid = 2`)
	check("after the point read and DELETE")

	const perRound = 200
	for round := 0; round < 3; round++ {
		lo := round * perRound
		for _, tbl := range []string{"plain", "indexed"} {
			var b strings.Builder
			fmt.Fprintf(&b, `INSERT INTO %s (rid, score, v, w) VALUES `, tbl)
			for i := lo; i < lo+perRound; i++ {
				if i > lo {
					b.WriteString(", ")
				}
				v := fmt.Sprintf("GAUSSIAN(%d, 4)", 20+i%60)
				if i%4 == 1 {
					v = fmt.Sprintf("DISCRETE(%d:0.25, %d:0.5)", 20+i%60, 21+i%60)
				}
				fmt.Fprintf(&b, "(%d, %d, %s, UNIFORM(%d, %d))", i, i*37%100, v, i%50, i%50+10)
			}
			insert(tbl, b.String())
		}
		reads := func(tbl string) []string {
			return []string{
				fmt.Sprintf(`SELECT rid, v FROM %s WHERE rid = %d`, tbl, lo+7),
				fmt.Sprintf(`SELECT rid FROM %s WHERE rid >= %d AND rid < %d`, tbl, lo+10, lo+40),
				fmt.Sprintf(`SELECT rid FROM %s WHERE PROB(v IN [30, 45]) >= 0.5`, tbl),
				fmt.Sprintf(`SELECT rid, w FROM %s WHERE PROB(v) < 1`, tbl),
				fmt.Sprintf(`SELECT rid FROM %s WHERE v < 40`, tbl),
				fmt.Sprintf(`SELECT rid, v FROM %s WHERE v < score AND rid < %d`, tbl, lo+60),
				fmt.Sprintf(`SELECT rid, v FROM %s WHERE v < 50 ORDER BY PROB(v) DESC LIMIT 9`, tbl),
				fmt.Sprintf(`SELECT * FROM %s WHERE w > 30 AND score < 60`, tbl),
				fmt.Sprintf(`SELECT SUM(v) FROM %s WHERE score < 30`, tbl),
				fmt.Sprintf(`SELECT COUNT(*) FROM %s WHERE PROB(w IN [10, 30]) >= 0.4`, tbl),
				fmt.Sprintf(`EXPLAIN SELECT rid FROM %s WHERE v < 40 AND rid < %d`, tbl, lo+100),
			}
		}
		// A second session streams reads while this one works.
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			other := e.NewSession()
			defer other.Close()
			for _, q := range reads("plain") {
				var frame []byte
				if _, _, err := other.ExecuteStream(context.Background(), q, batchSink(&frame, func([]byte, bool) error { return nil })); err != nil {
					t.Errorf("%s: %v", q, err)
				}
			}
		}()
		for _, tbl := range []string{"plain", "indexed"} {
			for _, q := range reads(tbl) {
				run(ses, q)
			}
			// The transaction route: the same reads over the overlay, and a
			// DELETE that the COMMIT replays on the catalog.
			run(ses, `BEGIN`)
			for _, q := range reads(tbl) {
				run(ses, q)
			}
			run(ses, fmt.Sprintf(`DELETE FROM %s WHERE rid >= %d AND rid < %d`, tbl, lo, lo+50))
			run(ses, `COMMIT`)
		}
		wg.Wait()
		// Every row any round read goes but this round's last 50, which the
		// next round reads again and deletes.
		for _, tbl := range []string{"plain", "indexed"} {
			run(ses, fmt.Sprintf(`DELETE FROM %s WHERE rid < %d`, tbl, lo+150))
		}
		check(fmt.Sprintf("round %d", round))
	}
}
