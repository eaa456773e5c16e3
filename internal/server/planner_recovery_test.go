package server

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"probdb/internal/vfs"
	"probdb/internal/vfs/faultfs"
)

// plannerProbe is the reference query of the planner recovery tests: a
// probability-range predicate the PTI answers when present.
const plannerProbe = "SELECT k FROM p WHERE PROB(x IN [20, 40]) >= 0.5"

// plannerWorkload exercises the planner's durability surface: ANALYZE and
// CREATE INDEX records in the WAL, their manifest lines at a checkpoint, and
// post-checkpoint DML the recovered indexes must absorb.
var plannerWorkload = []string{
	"CREATE TABLE p (k INT, x FLOAT UNCERTAIN)",
	"INSERT INTO p (k, x) VALUES (1, GAUSSIAN(5, 3))",
	"INSERT INTO p (k, x) VALUES (2, GAUSSIAN(10, 3))",
	"INSERT INTO p (k, x) VALUES (3, GAUSSIAN(15, 3))",
	"INSERT INTO p (k, x) VALUES (4, GAUSSIAN(20, 3))",
	"INSERT INTO p (k, x) VALUES (5, GAUSSIAN(25, 3))",
	"INSERT INTO p (k, x) VALUES (6, GAUSSIAN(30, 3))",
	"CREATE INDEX ON p (x)",
	"CREATE INDEX ON p (k)",
	"ANALYZE p",
	"CHECKPOINT",
	"INSERT INTO p (k, x) VALUES (7, GAUSSIAN(35, 3))",
	"INSERT INTO p (k, x) VALUES (8, GAUSSIAN(40, 3))",
	"DELETE FROM p WHERE k = 5",
	"ANALYZE p",
	plannerProbe,
}

// selectKeys runs a single-int-column SELECT and returns the sorted keys.
func selectKeys(t *testing.T, e *Engine, sql string) []int {
	t.Helper()
	res, err := e.Execute(sql)
	if err != nil {
		t.Fatalf("%q: %v", sql, err)
	}
	ks := []int{}
	if res.Table != nil {
		for _, row := range res.Table.Rows {
			ks = append(ks, int(row.Cells[0].Value.I))
		}
	}
	sort.Ints(ks)
	return ks
}

// TestPlannerStateSurvivesRestart: ANALYZE statistics and index definitions
// must come back after a clean Close (manifest path) with the indexes live —
// probing, pruning, and absorbing post-restart DML.
func TestPlannerStateSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenEngine(EngineConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range plannerWorkload {
		mustExecute(t, e, sql)
	}
	want := selectKeys(t, e, plannerProbe)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenEngine(EngineConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	ts := re.DB().TableStats("p")
	if ts == nil {
		t.Fatal("stats did not survive the restart")
	}
	if ts.Rows != 7 {
		t.Fatalf("recovered stats claim %d rows, want 7", ts.Rows)
	}
	cols := re.DB().IndexedCols("p")
	if cols["x"] != "pti" || cols["k"] != "btree" || len(cols) != 2 {
		t.Fatalf("recovered indexes: %v, want x→pti, k→btree", cols)
	}
	// The recovered PTI is live: EXPLAIN picks it and the probe answers match
	// a forced full scan.
	res, err := re.Execute("EXPLAIN " + plannerProbe)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Message, "access: pti(x)") {
		t.Fatalf("EXPLAIN after restart does not use the index:\n%s", res.Message)
	}
	if got := selectKeys(t, re, plannerProbe); !equalInts(got, want) {
		t.Fatalf("probe after restart: %v, want %v", got, want)
	}
	// Post-restart DML flows through the rebuilt indexes.
	mustExecute(t, re, "INSERT INTO p (k, x) VALUES (9, GAUSSIAN(28, 3))")
	mustExecute(t, re, "DELETE FROM p WHERE k = 4")
	got := selectKeys(t, re, plannerProbe)
	re.DB().SetForceScan(true)
	wantScan := selectKeys(t, re, plannerProbe)
	re.DB().SetForceScan(false)
	if !equalInts(got, wantScan) {
		t.Fatalf("post-restart DML: planner %v, scan %v", got, wantScan)
	}
}

// TestPlannerStateSurvivesCrash: with checkpoints disabled the planner DDL
// exists only as WAL records; recovery replay must re-execute it.
func TestPlannerStateSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenEngine(EngineConfig{Dir: dir, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range plannerWorkload {
		if sql == "CHECKPOINT" {
			continue
		}
		mustExecute(t, e, sql)
	}
	want := selectKeys(t, e, plannerProbe)
	e.Abort() // crash: everything after CREATE TABLE lives in the WAL only

	re, err := OpenEngine(EngineConfig{Dir: dir, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if ts := re.DB().TableStats("p"); ts == nil {
		t.Fatal("stats lost in WAL-only crash recovery")
	}
	if cols := re.DB().IndexedCols("p"); len(cols) != 2 {
		t.Fatalf("indexes lost in WAL-only crash recovery: %v", cols)
	}
	if got := selectKeys(t, re, plannerProbe); !equalInts(got, want) {
		t.Fatalf("probe after crash: %v, want %v", got, want)
	}
}

// TestPlannerRecoveryCrashMatrix sweeps a crash across every mutating
// filesystem operation of the planner workload, in every fault mode. The
// invariant is weaker than full recovery and that is the point: after any
// crash the planner may have lost its stats or indexes (they degrade to a
// full scan) but the probe's answers must always equal a forced full scan —
// the planner never converts a crash into a wrong answer.
func TestPlannerRecoveryCrashMatrix(t *testing.T) {
	countDir := t.TempDir()
	in := faultfs.NewInjector()
	e, err := OpenEngine(EngineConfig{Dir: countDir, CheckpointBytes: -1, FS: faultfs.New(vfs.OS, in)})
	if err != nil {
		t.Fatal(err)
	}
	in.Arm(0, faultfs.ModeFail)
	for _, sql := range plannerWorkload {
		mustExecute(t, e, sql)
	}
	nOps := in.Ops()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if nOps < 15 {
		t.Fatalf("planner workload issued only %d mutating ops; the sweep would be trivial", nOps)
	}
	t.Logf("planner workload: %d mutating filesystem operations", nOps)

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
				for _, sql := range plannerWorkload {
					_, _ = e.Execute(sql) //nolint:errcheck // post-fault statements may fail
				}
				e.Abort()

				re, err := OpenEngine(EngineConfig{Dir: dir, CheckpointBytes: -1})
				if err != nil {
					t.Fatalf("op %d (%s): recovery failed: %v", k, mode.name, err)
				}
				if _, ok := re.DB().Table("p"); ok {
					got := selectKeys(t, re, plannerProbe)
					re.DB().SetForceScan(true)
					want := selectKeys(t, re, plannerProbe)
					re.DB().SetForceScan(false)
					if !equalInts(got, want) {
						t.Fatalf("op %d (%s): planner answers %v, forced scan %v", k, mode.name, got, want)
					}
				}
				if !in.Injected() {
					// No fault fired: the full workload committed, so the
					// planner state must be fully present, not just safe.
					if re.DB().TableStats("p") == nil || len(re.DB().IndexedCols("p")) != 2 {
						t.Fatalf("op %d (%s): fault never fired yet planner state incomplete", k, mode.name)
					}
				}
				if err := re.Close(); err != nil {
					t.Fatalf("op %d (%s): close after recovery: %v", k, mode.name, err)
				}
			}
		})
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// reopenQueries is re-checked after every step of TestPlannerDifferentialReopen.
var reopenQueries = []string{
	"SELECT k, x FROM p WHERE k = 17",
	"SELECT k FROM p WHERE k < 12",
	"SELECT k, x FROM p WHERE k >= 10 AND k < 40",
	"SELECT k FROM p WHERE k > 30 AND k < 20",
	"SELECT k FROM p WHERE PROB(x IN [20, 40]) >= 0.5",
	"SELECT k, x FROM p WHERE k >= 5 AND k < 50 AND PROB(x IN [10, 45]) >= 0.6",
}

// TestPlannerDifferentialReopen drives seeded random autocommit DML
// (including multi-row INSERTs that fail on their last row and keep the rows
// ahead of it), committed and rolled-back transactions, a second CREATE
// INDEX, CHECKPOINTs and clean and crashed reopens through one data dir. After every step the
// index access paths must answer byte-identically, row order included, to a
// forced scan of the same catalog: the rowid order the candidate lists rely
// on has to survive the commit re-execution and every recovery route.
func TestPlannerDifferentialReopen(t *testing.T) {
	dir := t.TempDir()
	cfg := EngineConfig{Dir: dir}
	e, err := OpenEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { e.Close() }() //nolint:errcheck // the steps below check Close
	rng := rand.New(rand.NewSource(7))
	row := func() string {
		return fmt.Sprintf("(%d, GAUSSIAN(%d, %d))", rng.Intn(60), 5+rng.Intn(45), 1+rng.Intn(9))
	}
	insert := func() string {
		rows := make([]string, 1+rng.Intn(12))
		for i := range rows {
			rows[i] = row()
		}
		return "INSERT INTO p (k, x) VALUES " + strings.Join(rows, ", ")
	}
	del := func(span int) string {
		lo := rng.Intn(60 - span)
		return fmt.Sprintf("DELETE FROM p WHERE k >= %d AND k < %d", lo, lo+span)
	}
	rows := func(sql string) string {
		t.Helper()
		res, err := e.Execute(sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		_, body, _ := strings.Cut(res.Table.Render(), "\n") // the header names the access path
		return body
	}
	check := func(step string) {
		t.Helper()
		for _, q := range reopenQueries {
			e.DB().SetForceScan(true)
			want := rows(q)
			e.DB().SetForceScan(false)
			if got := rows(q); got != want {
				t.Fatalf("after %s: %s\nplanner: %s\nscan:    %s", step, q, got, want)
			}
		}
	}
	txn := func(end string) {
		t.Helper()
		s := e.NewSession()
		defer s.Close()
		for _, sql := range []string{"BEGIN", insert(), del(3), insert(), end} {
			if _, err := s.Execute(sql); err != nil {
				t.Fatalf("txn %q: %v", sql, err)
			}
		}
	}

	mustExecute(t, e, "CREATE TABLE p (k INT, x FLOAT UNCERTAIN)")
	for i := 0; i < 10; i++ {
		mustExecute(t, e, insert())
	}
	mustExecute(t, e, "CREATE INDEX ON p (k)")
	check("load")
	for step := 0; step < 48; step++ {
		name := ""
		switch r := rng.Intn(12); {
		case step == 9:
			name = "CREATE INDEX ON p (x)" // second index, rowids already have holes
			mustExecute(t, e, name)
		case step%8 == 3:
			name = insert() + ", (7, 5)" // a literal where a pdf belongs
			if _, err := e.Execute(name); err == nil {
				t.Fatalf("%q succeeded", name)
			}
		case r < 4:
			name = insert()
			mustExecute(t, e, name)
		case r < 6:
			name = del(1 + rng.Intn(5))
			mustExecute(t, e, name)
		case r < 7:
			name = del(25) // about 40 % of the keys: crosses both compaction thresholds
			mustExecute(t, e, name)
		case r < 8:
			name = "txn COMMIT"
			txn("COMMIT")
		case r < 9:
			name = "txn ROLLBACK"
			txn("ROLLBACK")
		case r < 10:
			name = "CHECKPOINT"
			mustExecute(t, e, name)
		default:
			name = "clean reopen"
			if r == 11 {
				name = "crash reopen"
				e.Abort()
			} else if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			if e, err = OpenEngine(cfg); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		check(fmt.Sprintf("step %d (%.50s)", step, name))
	}
	if cols := e.DB().IndexedCols("p"); cols["k"] != "btree" || cols["x"] != "pti" {
		t.Fatalf("indexes at the end: %v", cols)
	}
}
