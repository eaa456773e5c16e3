package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"probdb/internal/vfs"
	"probdb/internal/vfs/faultfs"
	"probdb/internal/wal"
)

// crashStep is one workload statement plus its effect on the logical model
// (table name → set of k values). CHECKPOINT steps have a nil apply: they
// change the disk layout but never the logical state.
type crashStep struct {
	sql   string
	apply func(m map[string][]int)
}

// crashWorkload exercises every WAL record type plus explicit checkpoints,
// so the fault sweep below crosses every phase of the persistence path:
// statement appends, snapshot writes, the manifest commit, the WAL roll,
// and garbage collection.
var crashWorkload = []crashStep{
	{"CREATE TABLE r (k INT, x FLOAT UNCERTAIN)", func(m map[string][]int) { m["r"] = nil }},
	{"INSERT INTO r (k, x) VALUES (1, GAUSSIAN(10, 2))", func(m map[string][]int) { m["r"] = append(m["r"], 1) }},
	{"INSERT INTO r (k, x) VALUES (2, GAUSSIAN(20, 2))", func(m map[string][]int) { m["r"] = append(m["r"], 2) }},
	{"CHECKPOINT", nil},
	{"INSERT INTO r (k, x) VALUES (3, GAUSSIAN(30, 2))", func(m map[string][]int) { m["r"] = append(m["r"], 3) }},
	{"DELETE FROM r WHERE k = 2", func(m map[string][]int) {
		var keep []int
		for _, k := range m["r"] {
			if k != 2 {
				keep = append(keep, k)
			}
		}
		m["r"] = keep
	}},
	{"CREATE TABLE tmp (k INT)", func(m map[string][]int) { m["tmp"] = nil }},
	{"INSERT INTO tmp (k) VALUES (7)", func(m map[string][]int) { m["tmp"] = append(m["tmp"], 7) }},
	{"DROP TABLE tmp", func(m map[string][]int) { delete(m, "tmp") }},
	{"CHECKPOINT", nil},
	{"INSERT INTO r (k, x) VALUES (4, GAUSSIAN(40, 2))", func(m map[string][]int) { m["r"] = append(m["r"], 4) }},
}

// renderModel canonicalizes a logical state for comparison.
func renderModel(m map[string][]int) string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		ks := append([]int(nil), m[n]...)
		sort.Ints(ks)
		fmt.Fprintf(&b, "%s:%v;", n, ks)
	}
	return b.String()
}

// engineState reads the recovered engine back into model form.
func engineState(t *testing.T, e *Engine) string {
	t.Helper()
	m := map[string][]int{}
	for _, name := range e.DB().TableNames() {
		res, err := e.Execute("SELECT k FROM " + name)
		if err != nil {
			t.Fatalf("state read %s: %v", name, err)
		}
		ks := []int{}
		if res.Table != nil {
			for _, row := range res.Table.Rows {
				ks = append(ks, int(row.Cells[0].Value.I))
			}
		}
		m[name] = ks
	}
	return renderModel(m)
}

// runCrashWorkload executes the workload against e, returning the logical
// model after the last *successful* mutating statement and (if any mutation
// failed) the model including the first failed mutation — the in-flight
// statement whose durability a crash may legitimately leave either way.
func runCrashWorkload(e *Engine) (committed, inflight string) {
	m := map[string][]int{}
	clone := func() map[string][]int {
		c := map[string][]int{}
		for k, v := range m {
			c[k] = append([]int(nil), v...)
		}
		return c
	}
	inflightModel := ""
	failed := false
	for _, st := range crashWorkload {
		_, err := e.Execute(st.sql)
		if st.apply == nil {
			continue // checkpoint: no logical effect either way
		}
		if err == nil {
			// Post-crash every mutation should fail; if one slips through,
			// applying it keeps the model honest and the final-state
			// comparison will expose any durability violation.
			st.apply(m)
			continue
		}
		if !failed {
			failed = true
			c := clone()
			st.apply(c)
			inflightModel = renderModel(c)
		}
	}
	return renderModel(m), inflightModel
}

// TestRecoveryCrashMatrix is the exhaustive crash sweep: it counts the
// workload's mutating filesystem operations, then re-runs the workload once
// per (operation index k, fault mode), injecting a crash at exactly that
// operation, abandoning the engine, and recovering the directory with a
// clean filesystem. After every crash the recovered state must equal the
// committed prefix — optionally plus the single in-flight statement (whose
// WAL record may or may not have reached the disk before the crash).
func TestRecoveryCrashMatrix(t *testing.T) {
	// Counting run: how many mutating ops does the workload issue?
	countDir := t.TempDir()
	in := faultfs.NewInjector()
	e, err := OpenEngine(EngineConfig{Dir: countDir, CheckpointBytes: -1, FS: faultfs.New(vfs.OS, in)})
	if err != nil {
		t.Fatal(err)
	}
	in.Arm(0, faultfs.ModeFail) // resets the counter; trigger 0 never fires
	wantState, _ := runCrashWorkload(e)
	nOps := in.Ops()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if nOps < 20 {
		t.Fatalf("workload issued only %d mutating ops; the sweep would be trivial", nOps)
	}
	t.Logf("workload: %d mutating filesystem operations, final state %q", nOps, wantState)

	modes := []struct {
		name string
		mode faultfs.Mode
	}{
		{"fail", faultfs.ModeFail},
		{"short", faultfs.ModeShortWrite},
		{"torn", faultfs.ModeTornWrite},
	}
	for _, mode := range modes {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			for k := 1; k <= nOps; k++ {
				dir := filepath.Join(t.TempDir(), fmt.Sprintf("crash%d", k))
				in := faultfs.NewInjector()
				e, err := OpenEngine(EngineConfig{
					Dir: dir, CheckpointBytes: -1,
					FS: faultfs.New(vfs.OS, in),
				})
				if err != nil {
					t.Fatalf("op %d: open: %v", k, err)
				}
				in.Arm(k, mode.mode)
				committed, inflight := runCrashWorkload(e)
				e.Abort() // simulate the process dying: no flush, no checkpoint

				// Recover with a healthy filesystem.
				re, err := OpenEngine(EngineConfig{Dir: dir, CheckpointBytes: -1})
				if err != nil {
					t.Fatalf("op %d (%s): recovery failed: %v", k, mode.name, err)
				}
				got := engineState(t, re)
				if got != committed && (inflight == "" || got != inflight) {
					t.Fatalf("op %d (%s): recovered state %q, want %q (committed) or %q (with in-flight)",
						k, mode.name, got, committed, inflight)
				}
				if !in.Injected() && got != wantState {
					t.Fatalf("op %d (%s): fault never fired yet state %q differs from full run %q",
						k, mode.name, got, wantState)
				}
				if err := re.Close(); err != nil {
					t.Fatalf("op %d (%s): close after recovery: %v", k, mode.name, err)
				}
			}
		})
	}
}

// TestRecoveryAfterAbortMidWorkload: even without injected faults, an Abort
// (crash) between statements must lose nothing that was acknowledged.
func TestRecoveryAfterAbortMidWorkload(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenEngine(EngineConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustExecute(t, e, "CREATE TABLE r (k INT, x FLOAT UNCERTAIN)")
	for i := 1; i <= 5; i++ {
		mustExecute(t, e, fmt.Sprintf("INSERT INTO r (k, x) VALUES (%d, GAUSSIAN(%d, 1))", i, 10*i))
	}
	e.Abort() // no Close, no checkpoint: the rows exist only in the WAL

	re, err := OpenEngine(EngineConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	res, err := re.Execute("SELECT k FROM r")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 5 {
		t.Fatalf("recovered %d rows, want 5", len(res.Table.Rows))
	}
}

// TestRecoveryAfterFailedMultiRowInsert: a multi-row INSERT refused on its
// last row stores nothing, and replaying its WAL record after a crash stores
// nothing either — not in the table, not in the index.
func TestRecoveryAfterFailedMultiRowInsert(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenEngine(EngineConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustExecute(t, e, "CREATE TABLE t (k INT, v FLOAT UNCERTAIN)")
	mustExecute(t, e, "CREATE INDEX t_k ON t (k)")
	if _, err := e.Execute("INSERT INTO t (k, v) VALUES (1, GAUSSIAN(0, 1)), (2, 5)"); err == nil {
		t.Fatal("INSERT with a literal for an uncertain column succeeded")
	}
	check := func(e *Engine, when string) {
		t.Helper()
		for _, sql := range []string{"SELECT k FROM t", "SELECT k FROM t WHERE k = 1"} {
			if ks := selectKeys(t, e, sql); len(ks) != 0 {
				t.Errorf("%s: %s = %v, want no rows", when, sql, ks)
			}
		}
	}
	check(e, "before the crash")
	e.Abort() // the failed statement's record is in the WAL; replay re-runs it

	re, err := OpenEngine(EngineConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	check(re, "after recovery")
	mustExecute(t, re, "INSERT INTO t (k, v) VALUES (1, GAUSSIAN(0, 1))")
	if ks := selectKeys(t, re, "SELECT k FROM t WHERE k = 1"); len(ks) != 1 {
		t.Errorf("after a good INSERT: %v, want [1]", ks)
	}
}

// TestQuarantineCorruptTable: flipping bytes in one table's snapshot file must
// quarantine that table on the next load — the sibling table keeps serving,
// writes to the damaged table are refused, and DROP discards it.
func TestQuarantineCorruptTable(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenEngine(EngineConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustExecute(t, e, "CREATE TABLE good (k INT, x FLOAT UNCERTAIN)")
	mustExecute(t, e, "INSERT INTO good (k, x) VALUES (1, GAUSSIAN(10, 2))")
	mustExecute(t, e, "CREATE TABLE bad (k INT, x FLOAT UNCERTAIN)")
	mustExecute(t, e, "INSERT INTO bad (k, x) VALUES (2, GAUSSIAN(20, 2))")
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	heaps, err := filepath.Glob(filepath.Join(dir, "bad.*"+snapExt))
	if err != nil || len(heaps) != 1 {
		t.Fatalf("bad snapshot files: %v (%v)", heaps, err)
	}
	raw, err := os.ReadFile(heaps[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/3] ^= 0xFF
	if err := os.WriteFile(heaps[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := OpenEngine(EngineConfig{Dir: dir})
	if err != nil {
		t.Fatalf("corrupt table killed the engine: %v", err)
	}
	defer re.Close()
	q := re.Quarantined()
	if _, ok := q["bad"]; !ok || len(q) != 1 {
		t.Fatalf("quarantine set: %v, want exactly {bad}", q)
	}
	// The healthy sibling still serves.
	res, err := re.Execute("SELECT k FROM good")
	if err != nil || len(res.Table.Rows) != 1 {
		t.Fatalf("good table after sibling corruption: %v %v", res, err)
	}
	// Reads and writes against the quarantined table fail with the typed
	// message instead of crashing.
	if _, err := re.Execute("SELECT k FROM bad"); err == nil || !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("select on quarantined table: %v", err)
	}
	if _, err := re.Execute("INSERT INTO bad (k, x) VALUES (9, GAUSSIAN(1, 1))"); err == nil || !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("insert into quarantined table: %v", err)
	}
	if _, err := re.Execute("CREATE TABLE bad (k INT)"); err == nil {
		t.Fatal("create over a quarantined name succeeded")
	}
	// DROP discards the quarantine entry and its file; the name is reusable.
	mustExecute(t, re, "DROP TABLE bad")
	if q := re.Quarantined(); len(q) != 0 {
		t.Fatalf("quarantine survives DROP: %v", q)
	}
	if _, err := os.Stat(heaps[0]); !os.IsNotExist(err) {
		t.Fatalf("quarantined snapshot file survives DROP: %v", err)
	}
	mustExecute(t, re, "CREATE TABLE bad (k INT)")
	mustExecute(t, re, "INSERT INTO bad (k) VALUES (5)")
	if res, err := re.Execute("SELECT k FROM bad"); err != nil || len(res.Table.Rows) != 1 {
		t.Fatalf("recreated table after quarantine drop: %v %v", res, err)
	}
}

// TestCorruptSnapshotAtRest: a running engine never reads a snapshot file, so
// corruption that appears in one after a clean load costs nothing while the
// server is up — SELECTs answer from memory and nothing is quarantined — and
// a table's next checkpoint heals it by writing a fresh generation. Only a
// restart that still finds a damaged file quarantines its table.
func TestCorruptSnapshotAtRest(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenEngine(EngineConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"healed", "rotten"} {
		mustExecute(t, e, "CREATE TABLE "+name+" (k INT, x FLOAT UNCERTAIN)")
		mustExecute(t, e, "INSERT INTO "+name+" (k, x) VALUES (1, GAUSSIAN(10, 2))")
	}
	mustExecute(t, e, "CHECKPOINT") // snapshots on disk, nothing dirty
	heaps, err := filepath.Glob(filepath.Join(dir, "*"+snapExt))
	if err != nil || len(heaps) != 2 {
		t.Fatalf("snapshot files: %v (%v)", heaps, err)
	}
	for _, path := range heaps {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[10] ^= 0xFF
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"healed", "rotten"} {
		if res, err := e.Execute("SELECT k FROM " + name); err != nil || len(res.Table.Rows) != 1 {
			t.Fatalf("SELECT over %s, whose file at rest is corrupt: %v %v", name, res, err)
		}
	}
	if q := e.Quarantined(); len(q) != 0 {
		t.Fatalf("intact in-memory tables quarantined: %v", q)
	}
	// A checkpoint rewrites the tables written since the last one — here one.
	mustExecute(t, e, "INSERT INTO healed (k, x) VALUES (2, GAUSSIAN(20, 2))")
	mustExecute(t, e, "CHECKPOINT")
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenEngine(EngineConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if q := re.Quarantined(); len(q) != 1 || q["rotten"] == nil {
		t.Fatalf("quarantine set at reopen: %v, want exactly {rotten}", q)
	}
	if res, err := re.Execute("SELECT k FROM healed"); err != nil || len(res.Table.Rows) != 2 {
		t.Fatalf("healed table after reopen: %v %v, want 2 rows", res, err)
	}
}

// TestWALReplayQuarantinedTable: when recovery quarantines a table whose
// snapshot file is corrupt, WAL records for that table — autocommit and
// transactional alike — are skipped with a typed *QuarantinedTableError the
// caller can enumerate, while the rest of the log replays normally.
func TestWALReplayQuarantinedTable(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenEngine(EngineConfig{Dir: dir, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	mustExecute(t, e, "CREATE TABLE good (k INT, x FLOAT UNCERTAIN)")
	mustExecute(t, e, "CREATE TABLE bad (k INT, x FLOAT UNCERTAIN)")
	mustExecute(t, e, "INSERT INTO bad (k, x) VALUES (1, GAUSSIAN(10, 2))")
	mustExecute(t, e, "CHECKPOINT") // bad's snapshot file exists; WAL now empty
	// Tail the WAL with records touching both tables, autocommit and txn.
	mustExecute(t, e, "INSERT INTO bad (k, x) VALUES (2, GAUSSIAN(20, 2))")
	mustExecute(t, e, "INSERT INTO good (k, x) VALUES (5, GAUSSIAN(50, 2))")
	s := e.NewSession()
	for _, sql := range []string{
		"BEGIN",
		"INSERT INTO bad (k, x) VALUES (3, GAUSSIAN(30, 2))",
		"COMMIT",
	} {
		if _, err := s.Execute(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	s.Close()
	e.Abort()

	heaps, err := filepath.Glob(filepath.Join(dir, "bad.*"+snapExt))
	if err != nil || len(heaps) != 1 {
		t.Fatalf("bad snapshot files: %v (%v)", heaps, err)
	}
	raw, err := os.ReadFile(heaps[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(heaps[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := OpenEngine(EngineConfig{Dir: dir, CheckpointBytes: -1})
	if err != nil {
		t.Fatalf("recovery died on quarantined replay: %v", err)
	}
	defer re.Close()
	rerrs := re.ReplayErrors()
	if len(rerrs) != 2 { // the autocommit INSERT and the transactional one
		t.Fatalf("replay errors: %v, want 2", rerrs)
	}
	for _, rerr := range rerrs {
		var qe *QuarantinedTableError
		if !errors.As(rerr, &qe) || qe.Table != "bad" {
			t.Fatalf("replay error %v is not a QuarantinedTableError for bad", rerr)
		}
	}
	// The sibling's record replayed through.
	res, err := re.Execute("SELECT k FROM good")
	if err != nil || len(res.Table.Rows) != 1 {
		t.Fatalf("good after quarantined replay: %v %v", res, err)
	}
	if _, ok := re.Quarantined()["bad"]; !ok {
		t.Fatal("bad not quarantined")
	}
}

// TestConcurrentInsertsWithCheckpoints drives INSERTs from several
// goroutines while another goroutine issues CHECKPOINTs — the interleaving
// the -race build watches, and a durability check at the end.
func TestConcurrentInsertsWithCheckpoints(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenEngine(EngineConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustExecute(t, e, "CREATE TABLE c (k INT, x FLOAT UNCERTAIN)")

	const writers, perWriter = 4, 15
	var wg sync.WaitGroup
	errs := make(chan error, writers+1)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := w*perWriter + i
				if _, err := e.Execute(fmt.Sprintf("INSERT INTO c (k, x) VALUES (%d, GAUSSIAN(%d, 1))", k, k)); err != nil {
					errs <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			if _, err := e.Execute("CHECKPOINT"); err != nil {
				errs <- fmt.Errorf("checkpointer: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	e.Abort() // crash without a final checkpoint

	re, err := OpenEngine(EngineConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	res, err := re.Execute("SELECT k FROM c")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Table.Rows); got != writers*perWriter {
		t.Fatalf("recovered %d rows, want %d", got, writers*perWriter)
	}
}

// TestRestartWithOutOfBoundPdfs: a WAL statement or a snapshot record that
// holds a pdf the parameter bounds refuse — as a binary from before the
// bounds could write — does not stop a restart. Replay logs the statement
// and skips it, as it skips any statement that fails; the snapshot's table
// is quarantined, as for any record that fails to decode.
func TestRestartWithOutOfBoundPdfs(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenEngine(EngineConfig{Dir: dir, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	mustExecute(t, e, "CREATE TABLE good (k INT, x FLOAT UNCERTAIN)")
	mustExecute(t, e, "CREATE TABLE bad (k INT, x FLOAT UNCERTAIN)")
	mustExecute(t, e, "INSERT INTO bad (k, x) VALUES (1, GAUSSIAN(10, 4))")
	mustExecute(t, e, "CHECKPOINT")
	mustExecute(t, e, "INSERT INTO good (k, x) VALUES (1, GAUSSIAN(50, 2))")
	e.Abort()

	logs, err := filepath.Glob(filepath.Join(dir, "wal.*.log"))
	if err != nil || len(logs) != 1 {
		t.Fatalf("WAL files: %v (%v)", logs, err)
	}
	f, err := os.OpenFile(logs[0], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	refused := "INSERT INTO good (k, x) VALUES (2, GAUSSIAN(1e200, 1))"
	if _, err := f.Write(wal.AppendRecord(nil, wal.TypeStatement, []byte(refused))); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// bad's snapshot: Gaus(10, 4) becomes Gaus(1e200, 4), every record
	// framed and checksummed anew.
	snaps, err := filepath.Glob(filepath.Join(dir, "bad.*"+snapExt))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("bad snapshot files: %v (%v)", snaps, err)
	}
	raw, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	f64 := func(v float64) []byte { return binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)) }
	out := append([]byte(nil), raw[:8]...) // the magic
	r := bytes.NewReader(raw[8:])
	for {
		rec, _, err := wal.ReadRecord(r, nil)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		out = wal.AppendRecord(out, rec.Type, bytes.Replace(rec.Data, f64(10), f64(1e200), 1))
	}
	if bytes.Equal(out, raw) {
		t.Fatal("no snapshot record holds the Gaussian's mean")
	}
	if err := os.WriteFile(snaps[0], out, 0o644); err != nil {
		t.Fatal(err)
	}

	var logged strings.Builder
	var mu sync.Mutex
	re, err := OpenEngine(EngineConfig{Dir: dir, CheckpointBytes: -1, Logf: func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		fmt.Fprintf(&logged, format+"\n", args...)
	}})
	if err != nil {
		t.Fatalf("restart over out-of-bound pdfs: %v", err)
	}
	defer re.Close()
	mu.Lock()
	log := logged.String()
	mu.Unlock()
	if !strings.Contains(log, refused) || !strings.Contains(log, "GAUSSIAN mean") {
		t.Errorf("replay did not log the refused statement:\n%s", log)
	}
	if res, err := re.Execute("SELECT k FROM good"); err != nil || len(res.Table.Rows) != 1 {
		t.Fatalf("good after replay: %v %v, want its one valid row", res, err)
	}
	if _, err := re.Execute("SELECT k FROM bad"); err == nil || !strings.Contains(err.Error(), "GAUSSIAN mean") {
		t.Fatalf("select on bad: %v, want a quarantine naming the refused pdf", err)
	}
}
