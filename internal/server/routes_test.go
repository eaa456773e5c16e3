package server

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"probdb/internal/core"
	"probdb/internal/vfs"
	"probdb/internal/wire"
)

// writeFromSink returns a streaming sink that hands every batch to onBatch
// and, on the first one, runs write — statements on other sessions —
// failing if it does not return promptly, which it could not if the
// streaming SELECT held the engine mutex.
func writeFromSink(write func() error, onBatch func(*core.Table, []*core.Tuple)) func(*core.Table, []*core.Tuple) error {
	probed := false
	return func(hdr *core.Table, b []*core.Tuple) error {
		onBatch(hdr, b)
		if probed {
			return nil
		}
		probed = true
		done := make(chan error, 1)
		go func() { done <- write() }()
		select {
		case err := <-done:
			return err
		case <-time.After(10 * time.Second):
			return errors.New("write on a second session blocked: the SELECT streams under e.mu")
		}
	}
}

// TestSelectRoutes: a SELECT reads memory in every storage state. The
// TestOneDispatchTwoDrivers SELECT corpus renders identically on ephemeral,
// dirty, checkpointed and reopened tables, indexed or not, and never reads a
// page. Every cell streams with the engine mutex released — indexed reads
// probe at plan time and run on frozen tables like the rest — proven by a
// sink that writes through a second session mid-stream.
func TestSelectRoutes(t *testing.T) {
	loads := []string{
		"CREATE TABLE r (k INT, x FLOAT UNCERTAIN)",
		"CREATE TABLE s (k INT, name TEXT)",
		"CREATE TABLE w (k INT)",
		"INSERT INTO r (k, x) VALUES (1, GAUSSIAN(10, 4)), (2, UNIFORM(0, 30)), (3, GAUSSIAN(25, 1)), (4, GAUSSIAN(18, 9))",
		"INSERT INTO s (k, name) VALUES (1, 'a'), (3, 'c'), (4, 'd')",
	}
	selects := []string{
		"SELECT * FROM r WHERE x < 20 AND PROB(x) > 0.3",
		"SELECT k FROM r WHERE x < 20 ORDER BY PROB(x) DESC",
		"SELECT k, x FROM r ORDER BY k DESC LIMIT 2",
		"SELECT r.k, s.name FROM r, s WHERE r.k = s.k",
		"SELECT SUM(x) FROM r WHERE k < 4",
		"SELECT k FROM r WHERE PROB(x IN [5, 20]) >= 0.5",
		"SELECT k FROM r WHERE k = 3",
	}
	var want []string
	for _, state := range []string{"ephemeral", "dirty", "clean", "reopened"} {
		for _, indexed := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/indexed=%v", state, indexed), func(t *testing.T) {
				cfg := EngineConfig{CheckpointBytes: -1}
				if state != "ephemeral" {
					cfg.Dir = t.TempDir()
				}
				e, err := OpenEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer func() { e.Close() }()
				for _, sql := range loads {
					mustExecute(t, e, sql)
				}
				if indexed {
					mustExecute(t, e, "CREATE INDEX ON r (k)")
				}
				switch state {
				case "clean":
					mustExecute(t, e, "CHECKPOINT")
				case "reopened":
					if err := e.Close(); err != nil {
						t.Fatal(err)
					}
					if e, err = OpenEngine(cfg); err != nil {
						t.Fatal(err)
					}
				}
				var got []string
				for _, sql := range selects {
					var tbl *wire.Table
					sink := func(hdr *core.Table, b []*core.Tuple) {
						if tbl == nil {
							tbl = &wire.Table{Cols: wire.ColumnsOf(hdr)} // rows only: the name spells the access path
						}
						tbl.Rows = append(tbl.Rows, wire.RowsOf(hdr, b)...)
					}
					write := func() error {
						_, err := e.NewSession().Execute("INSERT INTO w (k) VALUES (1)")
						return err
					}
					res, _, err := e.ExecuteStream(context.Background(), sql, writeFromSink(write, sink))
					if err != nil {
						t.Fatalf("%s: %v", sql, err)
					}
					if res.Stats.PageReads != 0 {
						t.Errorf("%s: read %d heap pages", sql, res.Stats.PageReads)
					}
					res.Table = tbl
					got = append(got, res.String())
				}
				if want == nil {
					want = got
				}
				for i, sql := range selects {
					if got[i] != want[i] {
						t.Errorf("%s:\ngot:\n%s\nwant (ephemeral, unindexed):\n%s", sql, got[i], want[i])
					}
				}
			})
		}
	}
}

// TestSelectStatsOwnWorkOnly: a SELECT, over an indexed table or not,
// releases e.mu while it streams, so other sessions commit, checkpoint and
// conflict meanwhile. None of that is the SELECT's work and none of it may
// show up in its Stats.
func TestSelectStatsOwnWorkOnly(t *testing.T) {
	for _, indexed := range []bool{false, true} {
		t.Run(fmt.Sprintf("indexed=%v", indexed), func(t *testing.T) { selectStatsOwnWorkOnly(t, indexed) })
	}
}

func selectStatsOwnWorkOnly(t *testing.T, indexed bool) {
	// The set-up stays under the auto-checkpoint threshold, the INSERT that
	// lands mid-scan crosses it: WAL bytes and page writes, all another
	// session's.
	e, err := OpenEngine(EngineConfig{Dir: t.TempDir(), CheckpointBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	mustExecute(t, e, "CREATE TABLE r (k INT, x FLOAT UNCERTAIN)")
	mustExecute(t, e, "INSERT INTO r (k, x) VALUES (1, GAUSSIAN(10, 4))")
	if indexed {
		mustExecute(t, e, "CREATE INDEX ON r (k)")
	}
	loser := e.NewSession()
	for _, sql := range []string{"BEGIN", "INSERT INTO r (k, x) VALUES (2, GAUSSIAN(1, 1))"} {
		if _, err := loser.Execute(sql); err != nil {
			t.Fatal(err)
		}
	}
	others := func() error {
		big := "INSERT INTO r (k, x) VALUES (3, GAUSSIAN(2, 1))" + strings.Repeat(", (3, GAUSSIAN(2, 1))", 60)
		if res, err := e.NewSession().Execute(big); err != nil || res.Stats.PageWrites == 0 {
			return fmt.Errorf("mid-scan INSERT: %v, stats %+v (want an auto-checkpoint)", err, res)
		}
		if _, err := loser.Execute("COMMIT"); err == nil {
			return errors.New("COMMIT of the losing transaction succeeded")
		}
		return nil
	}
	res, _, err := e.ExecuteStream(context.Background(), "SELECT k FROM r WHERE k = 1",
		writeFromSink(others, func(*core.Table, []*core.Tuple) {}))
	if err != nil {
		t.Fatal(err)
	}
	if probes := res.Stats.IndexProbes; indexed != (probes == 1) {
		t.Fatalf("indexed=%v: %d index probes", indexed, probes)
	}
	if e.Conflicts() != 1 {
		t.Fatalf("engine conflicts %d, want 1: the probe did not run", e.Conflicts())
	}
	if s := res.Stats; s.WALBytes != 0 || s.PageWrites != 0 || s.TxnConflicts != 0 {
		t.Fatalf("SELECT reports other sessions' work: %+v", s)
	}
}

// heapCountFS counts the *.heap handles currently open through it.
type heapCountFS struct {
	vfs.FS
	open, opened *atomic.Int64
}

type countedFile struct {
	vfs.File
	open *atomic.Int64
}

func (f heapCountFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil || !strings.HasSuffix(name, heapExt) {
		return file, err
	}
	f.open.Add(1)
	f.opened.Add(1)
	return countedFile{file, f.open}, nil
}

func (f countedFile) Close() error { f.open.Add(-1); return f.File.Close() }

// TestEngineHoldsNoHeapFiles: heap files are opened by recovery loads and
// checkpoint saves only, and closed before either returns.
func TestEngineHoldsNoHeapFiles(t *testing.T) {
	fsys := heapCountFS{vfs.OS, new(atomic.Int64), new(atomic.Int64)}
	cfg := EngineConfig{Dir: t.TempDir(), FS: fsys}
	check := func(when string, opened int64) {
		t.Helper()
		if fsys.open.Load() != 0 || fsys.opened.Load() != opened {
			t.Fatalf("%s: %d heap handles open, %d opened so far (want 0, %d)", when, fsys.open.Load(), fsys.opened.Load(), opened)
		}
	}
	e, err := OpenEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustExecute(t, e, "CREATE TABLE r (k INT)")
	mustExecute(t, e, "INSERT INTO r (k) VALUES (1)")
	mustExecute(t, e, "CHECKPOINT")
	check("after CHECKPOINT", 1)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if e, err = OpenEngine(cfg); err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	check("after OpenEngine", 2)
	mustExecute(t, e, "SELECT k FROM r")
	mustExecute(t, e, "DROP TABLE r")
	mustExecute(t, e, "CHECKPOINT")
	check("after DROP", 2)
}

// BenchmarkSelectAtRest: a filtered scan of a checkpointed, unindexed table —
// the state of every table after a restart.
func BenchmarkSelectAtRest(b *testing.B) {
	e, err := OpenEngine(EngineConfig{Dir: b.TempDir(), CheckpointBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	exec := func(sql string) {
		if _, err := e.Execute(sql); err != nil {
			b.Fatal(err)
		}
	}
	exec("CREATE TABLE r (rid INT, temp FLOAT UNCERTAIN)")
	for rid := 0; rid < 25_000; rid += 500 {
		var sb strings.Builder
		for i := rid; i < rid+500; i++ {
			fmt.Fprintf(&sb, ", (%d, GAUSSIAN(%d, 0.25))", i, i%40)
		}
		exec("INSERT INTO r (rid, temp) VALUES " + sb.String()[2:])
	}
	exec("CHECKPOINT")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exec("SELECT rid FROM r WHERE PROB(temp IN [12, 14]) >= 0.8")
	}
}
