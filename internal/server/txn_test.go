package server

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"probdb/internal/txn"
	"probdb/internal/vfs"
	"probdb/internal/vfs/faultfs"
)

// TestTxnSessionSemantics walks the BEGIN/COMMIT/ROLLBACK surface on one
// engine: overlay visibility, isolation between sessions, statement
// restrictions, abort poisoning, and durability of a committed transaction
// across a crash.
func TestTxnSessionSemantics(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenEngine(EngineConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustExecute(t, e, "CREATE TABLE r (k INT, x FLOAT UNCERTAIN)")
	mustExecute(t, e, "INSERT INTO r (k, x) VALUES (1, GAUSSIAN(10, 2))")

	s1, s2 := e.NewSession(), e.NewSession()
	defer s1.Close()
	defer s2.Close()

	rows := func(s *Session) int {
		t.Helper()
		res, err := s.Execute("SELECT k FROM r")
		if err != nil {
			t.Fatal(err)
		}
		if res.Table == nil {
			return 0
		}
		return len(res.Table.Rows)
	}

	res, err := s1.Execute("BEGIN")
	if err != nil || !res.InTxn {
		t.Fatalf("BEGIN: %+v, %v", res, err)
	}
	if _, err := s1.Execute("BEGIN"); err == nil {
		t.Fatal("nested BEGIN succeeded")
	}
	res, err = s1.Execute("INSERT INTO r (k, x) VALUES (2, GAUSSIAN(20, 2))")
	if err != nil || !res.InTxn || res.Affected != 1 {
		t.Fatalf("in-txn INSERT: %+v, %v", res, err)
	}
	// Read-your-writes inside the transaction; isolation outside it.
	if got := rows(s1); got != 2 {
		t.Fatalf("s1 sees %d rows inside its txn, want 2", got)
	}
	if got := rows(s2); got != 1 {
		t.Fatalf("s2 sees %d rows during s1's txn, want 1", got)
	}

	// Statements a transaction cannot hold.
	if _, err := s1.Execute("CHECKPOINT"); err == nil {
		t.Fatal("CHECKPOINT inside a transaction succeeded")
	}
	if _, err := s1.Execute("CREATE TABLE t2 (k INT)"); err == nil || !strings.Contains(err.Error(), "allowed inside a transaction") {
		t.Fatalf("DDL inside a transaction: %v", err)
	}

	res, err = s1.Execute("COMMIT")
	if err != nil {
		t.Fatal(err)
	}
	if res.InTxn {
		t.Fatalf("COMMIT result still flagged in-txn: %+v", res)
	}
	// One statement plus the commit marker, one fsync led by this session.
	if res.Stats.WALGroupSize < 2 || res.Stats.WALFsyncs != 1 {
		t.Fatalf("commit stats: %+v, want group >= 2 with a led fsync", res.Stats)
	}
	if got := rows(s2); got != 2 {
		t.Fatalf("s2 sees %d rows after s1's commit, want 2", got)
	}

	// ROLLBACK discards the overlay.
	mustSession := func(s *Session, sql string) {
		t.Helper()
		if _, err := s.Execute(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	mustSession(s1, "BEGIN")
	mustSession(s1, "INSERT INTO r (k, x) VALUES (3, GAUSSIAN(30, 2))")
	if got := rows(s1); got != 3 {
		t.Fatalf("overlay rows %d, want 3", got)
	}
	mustSession(s1, "ROLLBACK")
	if got := rows(s1); got != 2 {
		t.Fatalf("rows after rollback %d, want 2", got)
	}
	if _, err := s1.Execute("ROLLBACK"); err == nil {
		t.Fatal("ROLLBACK without a transaction succeeded")
	}
	if _, err := s1.Execute("COMMIT"); err == nil {
		t.Fatal("COMMIT without a transaction succeeded")
	}

	// A read-only transaction commits without touching the WAL.
	mustSession(s1, "BEGIN")
	if got := rows(s1); got != 2 {
		t.Fatalf("read-only txn rows %d", got)
	}
	res, err = s1.Execute("COMMIT")
	if err != nil || res.Stats.WALGroupSize != 0 {
		t.Fatalf("read-only commit: %+v, %v", res, err)
	}

	// A failed statement poisons the transaction: only ROLLBACK (or a
	// COMMIT that reports the abort) gets out.
	mustSession(s1, "BEGIN")
	if _, err := s1.Execute("INSERT INTO r (nope) VALUES (1)"); err == nil {
		t.Fatal("bad insert succeeded")
	}
	if _, err := s1.Execute("SELECT k FROM r"); err == nil || !strings.Contains(err.Error(), "aborted") {
		t.Fatalf("statement in aborted txn: %v", err)
	}
	if _, err := s1.Execute("COMMIT"); err == nil || !strings.Contains(err.Error(), "aborted") {
		t.Fatalf("COMMIT of aborted txn: %v", err)
	}
	// The failed COMMIT rolled back; the session is usable again.
	if got := rows(s1); got != 2 {
		t.Fatalf("rows after aborted txn %d, want 2", got)
	}

	// Committed transactions survive a crash: the group-committed batch
	// replays whole.
	mustSession(s1, "BEGIN")
	mustSession(s1, "INSERT INTO r (k, x) VALUES (4, GAUSSIAN(40, 2))")
	mustSession(s1, "INSERT INTO r (k, x) VALUES (5, GAUSSIAN(50, 2))")
	mustSession(s1, "COMMIT")
	// And an uncommitted one does not.
	mustSession(s2, "BEGIN")
	mustSession(s2, "INSERT INTO r (k, x) VALUES (99, GAUSSIAN(9, 1))")
	e.Abort()

	re, err := OpenEngine(EngineConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	res, err = re.Execute("SELECT k FROM r")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Table.Rows); got != 4 {
		t.Fatalf("recovered %d rows, want 4 (k=1,2,4,5)", got)
	}
}

// TestTxnConflict: first-writer-wins. Two transactions write the same
// table; the second committer gets a typed ConflictError, its transaction
// is gone, and the engine's conflict counter moves.
func TestTxnConflict(t *testing.T) {
	e, err := OpenEngine(EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	mustExecute(t, e, "CREATE TABLE r (k INT, x FLOAT UNCERTAIN)")

	s1, s2 := e.NewSession(), e.NewSession()
	defer s1.Close()
	defer s2.Close()
	for _, step := range []struct {
		s   *Session
		sql string
	}{
		{s1, "BEGIN"}, {s2, "BEGIN"},
		{s1, "INSERT INTO r (k, x) VALUES (10, GAUSSIAN(1, 1))"},
		{s2, "INSERT INTO r (k, x) VALUES (11, GAUSSIAN(1, 1))"},
		{s1, "COMMIT"},
	} {
		if _, err := step.s.Execute(step.sql); err != nil {
			t.Fatalf("%s: %v", step.sql, err)
		}
	}
	_, err = s2.Execute("COMMIT")
	var ce *txn.ConflictError
	if !errors.As(err, &ce) || ce.Table != "r" {
		t.Fatalf("losing COMMIT: %v, want ConflictError on r", err)
	}
	if got := e.Conflicts(); got != 1 {
		t.Fatalf("engine conflict counter %d, want 1", got)
	}
	// The losing transaction is rolled back, not stuck.
	if _, err := s2.Execute("COMMIT"); err == nil || !strings.Contains(err.Error(), "no transaction") {
		t.Fatalf("COMMIT after conflict: %v", err)
	}

	// An autocommit write conflicts with an open transaction the same way.
	if _, err := s2.Execute("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Execute("INSERT INTO r (k, x) VALUES (12, GAUSSIAN(1, 1))"); err != nil {
		t.Fatal(err)
	}
	mustExecute(t, e, "INSERT INTO r (k, x) VALUES (13, GAUSSIAN(1, 1))")
	if _, err := s2.Execute("COMMIT"); !errors.As(err, &ce) {
		t.Fatalf("commit over autocommit write: %v, want ConflictError", err)
	}

	// Disjoint write sets do not conflict.
	mustExecute(t, e, "CREATE TABLE other (k INT)")
	for _, step := range []struct {
		s   *Session
		sql string
	}{
		{s1, "BEGIN"}, {s2, "BEGIN"},
		{s1, "INSERT INTO r (k, x) VALUES (20, GAUSSIAN(1, 1))"},
		{s2, "INSERT INTO other (k) VALUES (21)"},
		{s1, "COMMIT"}, {s2, "COMMIT"},
	} {
		if _, err := step.s.Execute(step.sql); err != nil {
			t.Fatalf("%s: %v", step.sql, err)
		}
	}
}

// txnUnit is one atomic workload unit for the transactional crash sweep: a
// statement sequence that either commits whole or must vanish whole.
type txnUnit struct {
	stmts []string
	apply func(m map[string][]int)
}

var txnCrashWorkload = []txnUnit{
	{[]string{"CREATE TABLE r (k INT, x FLOAT UNCERTAIN)"}, func(m map[string][]int) { m["r"] = nil }},
	{[]string{
		"BEGIN",
		"INSERT INTO r (k, x) VALUES (1, GAUSSIAN(10, 2))",
		"INSERT INTO r (k, x) VALUES (2, GAUSSIAN(20, 2))",
		"COMMIT",
	}, func(m map[string][]int) { m["r"] = append(m["r"], 1, 2) }},
	// A rolled-back transaction writes nothing anywhere — not even records.
	{[]string{
		"BEGIN",
		"INSERT INTO r (k, x) VALUES (99, GAUSSIAN(9, 1))",
		"ROLLBACK",
	}, nil},
	{[]string{"CHECKPOINT"}, nil},
	{[]string{
		"BEGIN",
		"INSERT INTO r (k, x) VALUES (3, GAUSSIAN(30, 2))",
		"DELETE FROM r WHERE k = 1",
		"COMMIT",
	}, func(m map[string][]int) {
		var keep []int
		for _, k := range m["r"] {
			if k != 1 {
				keep = append(keep, k)
			}
		}
		m["r"] = append(keep, 3)
	}},
	{[]string{"INSERT INTO r (k, x) VALUES (4, GAUSSIAN(40, 2))"}, func(m map[string][]int) { m["r"] = append(m["r"], 4) }},
}

// runTxnWorkload drives the unit workload through one session, returning
// the model after the last fully-successful unit plus (if a unit failed)
// the model including the first failed unit — the transaction whose commit
// batch a crash may have made durable or not, but never partially.
func runTxnWorkload(e *Engine) (committed, inflight string) {
	s := e.NewSession()
	defer s.Close()
	m := map[string][]int{}
	inflightModel := ""
	failed := false
	for _, u := range txnCrashWorkload {
		uerr := error(nil)
		for _, sql := range u.stmts {
			if _, err := s.Execute(sql); err != nil && uerr == nil {
				uerr = err
			}
		}
		if u.apply == nil {
			continue
		}
		if uerr == nil {
			u.apply(m)
			continue
		}
		if !failed {
			failed = true
			c := map[string][]int{}
			for k, v := range m {
				c[k] = append([]int(nil), v...)
			}
			u.apply(c)
			inflightModel = renderModel(c)
		}
	}
	return renderModel(m), inflightModel
}

// TestTxnCrashMatrix sweeps a crash over every mutating filesystem
// operation of a transactional workload, in every fault mode. The recovered
// state must always be the committed units — possibly plus the in-flight
// unit in full. Transactions are atomic across crashes: no cell may ever
// recover half a commit batch (e.g. the INSERT of k=3 without the DELETE of
// k=1 it committed with).
func TestTxnCrashMatrix(t *testing.T) {
	countDir := t.TempDir()
	in := faultfs.NewInjector()
	e, err := OpenEngine(EngineConfig{Dir: countDir, CheckpointBytes: -1, FS: faultfs.New(vfs.OS, in)})
	if err != nil {
		t.Fatal(err)
	}
	in.Arm(0, faultfs.ModeFail) // never fires; counts ops
	wantState, _ := runTxnWorkload(e)
	nOps := in.Ops()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if nOps < 10 {
		t.Fatalf("workload issued only %d mutating ops", nOps)
	}
	t.Logf("transactional workload: %d mutating filesystem operations, final state %q", nOps, wantState)

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
				committed, inflight := runTxnWorkload(e)
				e.Abort()

				re, err := OpenEngine(EngineConfig{Dir: dir, CheckpointBytes: -1})
				if err != nil {
					t.Fatalf("op %d (%s): recovery failed: %v", k, mode.name, err)
				}
				got := engineState(t, re)
				if got != committed && (inflight == "" || got != inflight) {
					t.Fatalf("op %d (%s): recovered state %q, want %q (committed) or %q (with in-flight txn)",
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
