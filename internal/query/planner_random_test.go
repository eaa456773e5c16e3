package query

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"probdb/internal/core"
	"probdb/internal/wire"
)

// randomDMLQueries is the fixed set re-checked after every step of the
// randomized differential: point, one- and two-sided btree ranges (literal on
// either side, float bounds, a contradiction, a non-integral equality), a PTI
// range, and both kinds of conjunct together.
var randomDMLQueries = []string{
	`SELECT k, x FROM m WHERE k = 57`,
	`SELECT k FROM m WHERE k < 40`,
	`SELECT k FROM m WHERE k >= 150`,
	`SELECT k, x FROM m WHERE k >= 30 AND k < 90`,
	`SELECT k FROM m WHERE 20 < k AND k <= 25.5`,
	`SELECT k FROM m WHERE k > 10 AND k < 5`,
	`SELECT k FROM m WHERE k = 2.5`,
	`SELECT k, g FROM m WHERE g = 3 AND k < 100`,
	`SELECT k FROM m WHERE PROB(x IN [20, 30]) >= 0.5`,
	`SELECT k, x FROM m WHERE k >= 10 AND k < 120 AND PROB(x IN [15, 35]) >= 0.4`,
	`SELECT k FROM m WHERE k >= 10 AND k < 120 AND PROB(x IN [15, 35]) > 0.4 ORDER BY k DESC LIMIT 9`,
}

// randomRow renders one VALUES tuple for m: keys repeat and arrive out of
// key order, one in sixteen is NULL (the btree's spill list), and the pdfs
// mix families.
func randomRow(rng *rand.Rand) string {
	k := fmt.Sprint(rng.Intn(200))
	if rng.Intn(16) == 0 {
		k = "NULL"
	}
	x := fmt.Sprintf("GAUSSIAN(%d, %d)", 5+rng.Intn(50), 1+rng.Intn(9))
	if rng.Intn(4) == 0 {
		lo := rng.Intn(50)
		x = fmt.Sprintf("UNIFORM(%d, %d)", lo, lo+1+rng.Intn(10))
	}
	return fmt.Sprintf("(%s, %d, %s)", k, rng.Intn(5), x)
}

func randomInsert(rng *rand.Rand, rows int) string {
	vals := make([]string, rows)
	for i := range vals {
		vals[i] = randomRow(rng)
	}
	return `INSERT INTO m (k, g, x) VALUES ` + strings.Join(vals, ", ")
}

// TestPlannerDifferentialRandomDML interleaves seeded random INSERTs and
// DELETEs — the deletes crossing the 32-entry / quarter-of-the-table
// compaction threshold of the PTI — with a CREATE INDEX on the
// already-indexed table and multi-row INSERTs that fail on their last row
// and so insert nothing. After every step each query must answer
// byte-identically, row order included, with and without index access paths,
// and the rowid bookkeeping must still mirror the table.
func TestPlannerDifferentialRandomDML(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			db := Open()
			mustExec(t, db, `CREATE TABLE m (k INT, g INT, x FLOAT UNCERTAIN)`)
			mustExec(t, db, randomInsert(rng, 200))
			mustExec(t, db, `CREATE INDEX ON m (k)`)
			mustExec(t, db, `CREATE INDEX ON m (x)`)
			mustExec(t, db, `ANALYZE m`)

			probes := uint64(0)
			check := func(step string) {
				t.Helper()
				tb, _ := db.Table("m")
				if err := db.indexes["m"].Check(tb); err != nil {
					t.Fatalf("after %.60s: %v", step, err)
				}
				for _, q := range randomDMLQueries {
					db.SetForceScan(true)
					want := renderRows(mustExec(t, db, q))
					db.SetForceScan(false)
					got := mustExec(t, db, q)
					if renderRows(got) != want {
						t.Fatalf("after %.60s: %s\nplanner: %s\nscan:    %s", step, q, renderRows(got), want)
					}
					probes += got.Planner.IndexProbes
				}
			}
			check("load")
			for step := 0; step < 40; step++ {
				var sql string
				switch r := rng.Intn(10); {
				case step == 12:
					sql = `CREATE INDEX ON m (g)` // rowids already have holes
				case step%10 == 5:
					// The last row has a literal where a pdf belongs: the
					// statement fails, and the rows ahead of it are not in.
					sql = randomInsert(rng, 1+rng.Intn(5)) + `, (57, 1, 5)`
					tb, _ := db.Table("m")
					before := tb.Len()
					if _, err := db.Exec(sql); err == nil || tb.Len() != before {
						t.Fatalf("%s: err = %v, table %d -> %d rows", sql, err, before, tb.Len())
					}
					check(sql)
					continue
				case r < 5:
					sql = randomInsert(rng, 1+rng.Intn(30))
				case r < 8:
					lo := rng.Intn(180)
					sql = fmt.Sprintf(`DELETE FROM m WHERE k >= %d AND k < %d`, lo, lo+1+rng.Intn(12))
				case r < 9:
					// A third or more of the table at once: the PTI's
					// tombstones pass both the floor of 32 and a quarter of
					// its entries.
					lo := rng.Intn(100)
					sql = fmt.Sprintf(`DELETE FROM m WHERE k >= %d AND k < %d`, lo, lo+70)
				default:
					sql = fmt.Sprintf(`DELETE FROM m WHERE PROB(x IN [%d, %d]) >= 0.8`, 10+rng.Intn(30), 45+rng.Intn(10))
				}
				mustExec(t, db, sql)
				check(sql)
			}
			if probes == 0 {
				t.Error("no query used an index probe")
			}
		})
	}
}

// TestIndexedSelectAllocsDoNotScale: an indexed point SELECT and a 50-row
// range SELECT allocate the same at 2 000 and at 20 000 rows. A table walk
// or a half-table candidate set on the access path shows up here as a
// deterministic count, not as a slow benchmark.
func TestIndexedSelectAllocsDoNotScale(t *testing.T) {
	allocs := func(n int) (point, rng float64) {
		db := indexedReadings(t, n, false)
		run := func(sql string) float64 {
			return testing.AllocsPerRun(20, func() {
				if r, err := db.Exec(sql); err != nil || r.Planner.IndexProbes != 1 {
					t.Fatalf("%s: %v, %+v", sql, err, r)
				}
			})
		}
		return run(`SELECT rid, sensor, value, score FROM readings WHERE rid = 1234`),
			run(`SELECT rid, value FROM readings WHERE rid >= 1000 AND rid < 1050`)
	}
	smallPoint, smallRange := allocs(2000)
	bigPoint, bigRange := allocs(20000)
	if d := bigPoint - smallPoint; d > 2 || d < -2 {
		t.Errorf("point SELECT: %v allocs at 2 000 rows, %v at 20 000", smallPoint, bigPoint)
	}
	if d := bigRange - smallRange; d > 2 || d < -2 {
		t.Errorf("50-row range SELECT: %v allocs at 2 000 rows, %v at 20 000", smallRange, bigRange)
	}
}

// TestCertainScanAllocsDoNotScale: a certain-column scan into a bounded heap
// and one into an aggregate allocate the same at 2 000 and at 20 000 rows,
// give or take the doublings of the buffers that hold the survivors. So does
// a top-k by PROB over a floor, which ranks pending masses and builds only
// its k rows. Per-batch scratch is allowed; anything per row or per survivor
// shows up here as thousands.
func TestCertainScanAllocsDoNotScale(t *testing.T) {
	allocs := func(n int) (topk, count, topkProb float64) {
		db := indexedReadings(t, n, false)
		run := func(sql string) float64 {
			return testing.AllocsPerRun(20, func() {
				if _, err := db.Exec(sql); err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
			})
		}
		return run(`SELECT rid, score FROM readings WHERE score < 500 ORDER BY score DESC LIMIT 10`),
			run(`SELECT COUNT(*) FROM readings WHERE score < 100`),
			run(`SELECT rid FROM readings WHERE value < 50 ORDER BY PROB(value) DESC LIMIT 10`)
	}
	smallTopK, smallCount, smallProb := allocs(2000)
	bigTopK, bigCount, bigProb := allocs(20000)
	if d := bigTopK - smallTopK; d > 8 || d < -8 {
		t.Errorf("top-k scan: %v allocs at 2 000 rows, %v at 20 000", smallTopK, bigTopK)
	}
	if d := bigCount - smallCount; d > 8 || d < -8 {
		t.Errorf("COUNT(*) scan: %v allocs at 2 000 rows, %v at 20 000", smallCount, bigCount)
	}
	if d := bigProb - smallProb; d > 8 || d < -8 {
		t.Errorf("top-k by PROB over a floor: %v allocs at 2 000 rows, %v at 20 000", smallProb, bigProb)
	}
}

// TestStreamedProjectionAllocsDoNotScale: a streamed SELECT rid ... WHERE
// PROB(...), encoded the way the server ships it, allocates per statement
// and neither per batch nor per row — at 10 000 survivors (36 batches more)
// at most four allocations more than at 1 000, and none today: the
// threshold kernel reads the batch's cached encoding, the filter and the
// encoder reuse their buffers, and the projection passes its input's tuples
// through. A projection that builds tuples or value blocks per batch shows
// up here as dozens; one that rebuilds every tuple, a copy of every row or
// a wire.Row per row as thousands.
func TestStreamedProjectionAllocsDoNotScale(t *testing.T) {
	const sql = `SELECT rid FROM readings WHERE PROB(value IN [0, 100]) >= 0.5`
	allocs := func(n int) float64 {
		db := indexedReadings(t, n, false)
		var frame []byte
		return testing.AllocsPerRun(10, func() {
			var enc *wire.BatchEncoder
			rows := 0
			_, err := db.ExecStream(context.Background(), sql, func(hdr *core.Table, b []*core.Tuple) error {
				if enc == nil {
					enc = wire.NewBatchEncoder(hdr)
				}
				frame = enc.AppendNext(frame[:0], b)
				rows += len(b)
				return nil
			})
			if err != nil || rows != n {
				t.Fatalf("%s: %d of %d rows, %v", sql, rows, n, err)
			}
		})
	}
	small, big := allocs(1000), allocs(10000)
	if d := big - small; d > 4 || d < -4 {
		t.Errorf("streamed projection: %v allocs at 1 000 survivors, %v at 10 000 (36 more batches)", small, big)
	}
}
