package server

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func mustExecute(t *testing.T, e *Engine, sql string) {
	t.Helper()
	if _, err := e.Execute(sql); err != nil {
		t.Fatalf("execute %q: %v", sql, err)
	}
}

// TestEngineEphemeral: with no data dir everything runs in memory and the
// I/O counters stay zero.
func TestEngineEphemeral(t *testing.T) {
	e, err := OpenEngine(EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	mustExecute(t, e, "CREATE TABLE r (rid INT, value FLOAT UNCERTAIN)")
	mustExecute(t, e, "INSERT INTO r (rid, value) VALUES (1, GAUSSIAN(20, 5))")
	res, err := e.Execute("SELECT rid FROM r WHERE PROB(value) > 0.5")
	if err != nil {
		t.Fatal(err)
	}
	if res.Table == nil || len(res.Table.Rows) != 1 {
		t.Fatalf("rows: %+v", res.Table)
	}
	if res.Stats.WALBytes != 0 {
		t.Fatalf("ephemeral engine reported I/O: %+v", res.Stats)
	}
}

// TestEngineMassCacheStats: the wire pair that counted the retired pdf-mass
// cache stays 0, and the kernel counters carry the statement's evaluation
// strategy instead — a range-probability query runs on the vectorized
// kernels, first run and repeat alike, in and out of a transaction.
func TestEngineMassCacheStats(t *testing.T) {
	e, err := OpenEngine(EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	mustExecute(t, e, "CREATE TABLE r (rid INT, value FLOAT UNCERTAIN)")
	mustExecute(t, e, "INSERT INTO r (rid, value) VALUES (1, GAUSSIAN(20, 5)), (2, GAUSSIAN(30, 2))")
	const q = "SELECT rid FROM r WHERE PROB(value IN [15, 25]) >= 0.1"
	res, err := e.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	first := res.Stats
	if first.VecTuples == 0 || first.ScalarTuples != 0 || first.MassCacheHits != 0 || first.MassCacheMiss != 0 {
		t.Fatalf("first run should evaluate on the vectorized kernels alone: %+v", first)
	}
	res, err = e.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.VecTuples != first.VecTuples || res.Stats.ScalarTuples != 0 || res.Stats.MassCacheHits != 0 || res.Stats.MassCacheMiss != 0 {
		t.Fatalf("repeat run %+v, first %+v", res.Stats, first)
	}
	// The same SELECT inside a transaction reports the same kernel counters.
	auto := res.Stats
	mustExecute(t, e, "BEGIN")
	res, err = e.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.InTxn || res.Stats.VecTuples != auto.VecTuples || res.Stats.ScalarTuples != auto.ScalarTuples {
		t.Fatalf("in-txn kernel counters %+v, autocommit %+v", res.Stats, auto)
	}
	mustExecute(t, e, "COMMIT")
}

// TestEnginePersistAndReload verifies the WAL-first write path, that a SELECT
// reads memory whether or not the table is checkpointed, restart recovery,
// and DROP cleanup.
func TestEnginePersistAndReload(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenEngine(EngineConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustExecute(t, e, "CREATE TABLE readings (rid INT, value FLOAT UNCERTAIN)")
	if res, err := e.Execute(
		"INSERT INTO readings (rid, value) VALUES (1, GAUSSIAN(20, 5)), (2, GAUSSIAN(25, 4)), (3, GAUSSIAN(13, 1))"); err != nil {
		t.Fatal(err)
	} else if res.Stats.WALBytes == 0 {
		t.Fatalf("insert reported no WAL bytes: %+v", res.Stats)
	}

	// A checkpoint changes nothing for readers: the clean table is still
	// answered from memory, never by re-reading its snapshot file.
	mustExecute(t, e, "CHECKPOINT")
	res, err := e.Execute("SELECT rid FROM readings WHERE value < 20 AND PROB(value) > 0.4")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Table.Rows); got != 2 {
		t.Fatalf("rows: %d, want 2\n%s", got, res.Table.Render())
	}

	// DELETE goes through the WAL; the checkpointed snapshot it eventually
	// replaces is swapped via the manifest, so no temp file must remain
	// after the next checkpoint.
	if res, err = e.Execute("DELETE FROM readings WHERE rid = 1"); err != nil {
		t.Fatal(err)
	} else if res.Affected != 1 {
		t.Fatalf("delete affected %d", res.Affected)
	}
	mustExecute(t, e, "CHECKPOINT")
	if _, err := os.Stat(filepath.Join(dir, "MANIFEST.tmp")); !os.IsNotExist(err) {
		t.Fatalf("manifest temp file left behind: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh engine recovers the surviving rows from disk.
	e2, err := OpenEngine(EngineConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	res, err = e2.Execute("SELECT rid FROM readings WHERE PROB(value) > 0")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 2 {
		t.Fatalf("reloaded rows: %d, want 2\n%s", len(res.Table.Rows), res.Table.Render())
	}

	// DROP removes the table's snapshot no later than the next checkpoint.
	mustExecute(t, e2, "DROP TABLE readings")
	mustExecute(t, e2, "CHECKPOINT")
	snaps, err := filepath.Glob(filepath.Join(dir, "readings.*"+snapExt))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 0 {
		t.Fatalf("snapshot files survive DROP+CHECKPOINT: %v", snaps)
	}
}

// TestEngineStatsMonotone: a checkpoint rolls the WAL and shrinks it below
// a statement's starting size, which must never make that statement's WAL
// delta underflow.
func TestEngineStatsMonotone(t *testing.T) {
	e, err := OpenEngine(EngineConfig{Dir: t.TempDir(), CheckpointBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	mustExecute(t, e, "CREATE TABLE t (k INT, x FLOAT UNCERTAIN)")
	for i := 0; i < 40; i++ {
		sql := "INSERT INTO t (k, x) VALUES (1, GAUSSIAN(10, 2))" // crosses the auto-checkpoint threshold
		if i%5 == 0 {
			sql = "CHECKPOINT"
		}
		res, err := e.Execute(sql)
		if err != nil {
			t.Fatal(err)
		}
		// An underflow would show up as a delta near 2^64.
		if res.Stats.WALBytes > 1<<20 {
			t.Fatalf("%s: WAL delta underflowed: %+v", sql, res.Stats)
		}
	}
}

// TestDeleteUsesIndex: a DELETE by key plans like the SELECT with its WHERE,
// so on a btree-indexed n-row table it probes the index once, skips the
// other n-1 rows, and reports both on the wire; and the replayed WAL
// removes the same row.
func TestDeleteUsesIndex(t *testing.T) {
	const n = 300
	dir := t.TempDir()
	e, err := OpenEngine(EngineConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustExecute(t, e, "CREATE TABLE t (rid INT, x FLOAT UNCERTAIN)")
	var b strings.Builder
	b.WriteString("INSERT INTO t (rid, x) VALUES ")
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, GAUSSIAN(%d, 2))", i, i%50)
	}
	mustExecute(t, e, b.String())
	mustExecute(t, e, "CREATE INDEX ON t (rid)")
	res, err := e.Execute("DELETE FROM t WHERE rid = 123")
	if err != nil {
		t.Fatal(err)
	}
	if s := res.Stats; res.Affected != 1 || s.IndexProbes != 1 || s.IndexPruned != n-1 {
		t.Fatalf("DELETE … WHERE rid = 123: %d rows, %d index probes, %d pruned; want 1, 1 and %d", res.Affected, s.IndexProbes, s.IndexPruned, n-1)
	}
	e.Close()

	if e, err = OpenEngine(EngineConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for sql, want := range map[string]int{"SELECT rid FROM t": n - 1, "SELECT rid FROM t WHERE rid = 123": 0} {
		if res, err := e.Execute(sql); err != nil || len(res.Table.Rows) != want {
			t.Fatalf("after replay, %s: %v, want %d rows", sql, err, want)
		}
	}
}

// TestEngineCheckpointLifecycle pins the generation bookkeeping: WAL files
// are per-generation, checkpoints advance the manifest, and old artifacts
// are garbage-collected.
func TestEngineCheckpointLifecycle(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenEngine(EngineConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := os.Stat(filepath.Join(dir, "wal.0.log")); err != nil {
		t.Fatalf("fresh engine has no generation-0 WAL: %v", err)
	}
	mustExecute(t, e, "CREATE TABLE s (k INT)")
	mustExecute(t, e, "INSERT INTO s (k) VALUES (1)")
	mustExecute(t, e, "CHECKPOINT")
	if _, err := os.Stat(filepath.Join(dir, "wal.1.log")); err != nil {
		t.Fatalf("checkpoint did not roll the WAL: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "wal.0.log")); !os.IsNotExist(err) {
		t.Fatalf("old WAL not collected: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "s.1.snap")); err != nil {
		t.Fatalf("checkpoint snapshot missing: %v", err)
	}
	// An idle checkpoint (nothing dirty, empty WAL) is a no-op.
	mustExecute(t, e, "CHECKPOINT")
	if _, err := os.Stat(filepath.Join(dir, "wal.1.log")); err != nil {
		t.Fatalf("idle checkpoint rolled the WAL: %v", err)
	}
}

// TestEngineRejectsLegacyLayout: a pre-manifest data dir must produce a
// clear error, not silent data loss.
func TestEngineRejectsLegacyLayout(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "old.heap"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenEngine(EngineConfig{Dir: dir}); err == nil {
		t.Fatal("engine opened a legacy (manifest-less) layout")
	}
}
