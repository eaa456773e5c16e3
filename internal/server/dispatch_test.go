package server

import (
	"context"
	"fmt"
	"testing"

	"probdb/internal/core"
	"probdb/internal/wire"
)

// TestOneDispatchTwoDrivers: Session.Execute is Session.ExecuteStream behind
// a collecting sink, so a fixed statement list run once through each on twin
// engines must agree on every rendered table, message, count, in-txn flag,
// stats counter and error text — on an ephemeral engine, on one whose
// tables are dirty and on a checkpointed one (unindexed SELECTs in all
// three, until the index at the end) — and rows must go through the sink
// exactly for plain SELECTs.
func TestOneDispatchTwoDrivers(t *testing.T) {
	type step struct {
		ses     int // two sessions, for the conflicting COMMIT
		sql     string
		streams bool
	}
	loads := []step{
		{0, "CREATE TABLE r (k INT, x FLOAT UNCERTAIN)", false},
		{0, "CREATE TABLE s (k INT, name TEXT)", false},
		{0, "INSERT INTO r (k, x) VALUES (1, GAUSSIAN(10, 4)), (2, UNIFORM(0, 30)), (3, GAUSSIAN(25, 1)), (4, GAUSSIAN(18, 9))", false},
		{0, "INSERT INTO s (k, name) VALUES (1, 'a'), (3, 'c'), (4, 'd')", false},
	}
	rest := []step{
		{0, "SELECT * FROM r WHERE x < 20 AND PROB(x) > 0.3", true},
		{0, "SELECT k FROM r WHERE x < 20 ORDER BY PROB(x) DESC", true},
		{0, "SELECT k, x FROM r ORDER BY k DESC LIMIT 2", true},
		{0, "SELECT r.k, s.name FROM r, s WHERE r.k = s.k", true},
		{0, "SELECT SUM(x) FROM r WHERE k < 4", false},
		{0, "EXPLAIN SELECT k FROM r WHERE PROB(x IN [5, 20]) >= 0.5", false},
		{0, "DESCRIBE r", false},
		{0, "SELECT * FROM nope", true},
		{0, "CHECKPOINT", false},
		{0, "HEALTH", false},
		{0, "BEGIN", false},
		{0, "SELECT k FROM r WHERE PROB(x IN [5, 20]) >= 0.5", true},
		{0, "INSERT INTO r (k, x) VALUES (5, GAUSSIAN(12, 2))", false},
		{0, "SELECT COUNT(*) FROM r", false},
		{0, "COMMIT", false},
		{1, "BEGIN", false},
		{1, "INSERT INTO r (k, x) VALUES (6, GAUSSIAN(1, 1))", false},
		{0, "INSERT INTO r (k, x) VALUES (7, GAUSSIAN(2, 1))", false},
		{1, "COMMIT", false}, // loses to session 0's autocommit write
		{0, "BEGIN", false},
		{0, "INSERT INTO r (k, x) VALUES (8, 5)", false}, // fails: poisons the txn
		{0, "SELECT * FROM r", true},
		{0, "ROLLBACK", false},
		{0, "CREATE INDEX ON r (k)", false},
		{0, "SELECT k FROM r WHERE k = 3", true}, // authoritative-catalog route
	}
	for _, mode := range []string{"ephemeral", "dirty", "checkpointed"} {
		t.Run(mode, func(t *testing.T) {
			steps := append([]step{}, loads...)
			if mode == "checkpointed" {
				steps = append(steps, step{0, "CHECKPOINT", false})
			}
			steps = append(steps, rest...)
			run := func(stream bool) []string {
				cfg := EngineConfig{CheckpointBytes: -1}
				if mode != "ephemeral" {
					cfg.Dir = t.TempDir()
				}
				e, err := OpenEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				ses := []*Session{e.NewSession(), e.NewSession()}
				var out []string
				for _, st := range steps {
					var res *wire.Result
					var err error
					if stream {
						var tbl *wire.Table
						var streamed bool
						res, streamed, err = ses[st.ses].ExecuteStream(context.Background(), st.sql, func(hdr *core.Table, b []*core.Tuple) error {
							if tbl == nil {
								tbl = &wire.Table{Name: hdr.Name, Cols: wire.ColumnsOf(hdr)}
							}
							tbl.Rows = append(tbl.Rows, wire.RowsOf(hdr, b)...)
							return nil
						})
						if streamed != st.streams {
							t.Errorf("%s: streamed = %v, want %v", st.sql, streamed, st.streams)
						}
						if (tbl != nil) != (streamed && err == nil) {
							t.Errorf("%s: sink called = %v with streamed = %v, err = %v", st.sql, tbl != nil, streamed, err)
						}
						if err == nil && streamed {
							res.Table = tbl
						}
					} else {
						res, err = ses[st.ses].Execute(st.sql)
					}
					if err != nil {
						out = append(out, "error: "+err.Error())
						continue
					}
					res.Stats.LatencyMicros = 0
					out = append(out, fmt.Sprintf("%s\naffected=%d inTxn=%v stats=%+v", res.String(), res.Affected, res.InTxn, res.Stats))
				}
				return out
			}
			collected, streamed := run(false), run(true)
			for i, st := range steps {
				if collected[i] != streamed[i] {
					t.Errorf("%s:\nExecute:\n%s\nExecuteStream:\n%s", st.sql, collected[i], streamed[i])
				}
			}
		})
	}
}
