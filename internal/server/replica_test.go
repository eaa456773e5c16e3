package server

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"probdb/internal/vfs"
	"probdb/internal/wal"
	"probdb/internal/wire"
)

// startLeader boots a ship-wal leader over dir on an ephemeral port.
func startLeader(t *testing.T, dir string) *Server {
	t.Helper()
	s, err := New(Config{Addr: "127.0.0.1:0", DataDir: dir, ShipWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	return s
}

// startReplica boots a read replica of leaderAddr over dir.
func startReplica(t *testing.T, dir, leaderAddr string) *Server {
	t.Helper()
	s, err := New(Config{
		Addr: "127.0.0.1:0", DataDir: dir, ReplicaOf: leaderAddr,
		ReplicaPoll: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	return s
}

// waitCaughtUp blocks until the replica's LSN reaches the leader's durable
// frontier — the precondition every "replica has everything" assertion and
// every leader-kill needs.
func waitCaughtUp(t *testing.T, leader, replica *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		want, err := leader.Engine().DurableLSN()
		if err != nil {
			t.Fatal(err)
		}
		if replica.Replica().LSN() >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at LSN %d, leader at %d", replica.Replica().LSN(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func mustQuery(t *testing.T, addr, sql string) *wire.Result {
	t.Helper()
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Query(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res
}

// TestReplicaServesLeaderState ships autocommit DML, a committed
// transaction, and planner statements to a replica and checks the replica's
// reads match the leader's — including across a leader checkpoint (a WAL
// generation roll mid-stream).
func TestReplicaServesLeaderState(t *testing.T) {
	leader := startLeader(t, t.TempDir())
	defer leader.Shutdown(context.Background()) //nolint:errcheck
	addr := leader.Addr().String()

	mustQuery(t, addr, "CREATE TABLE s (k INT, v FLOAT UNCERTAIN)")
	for i := 0; i < 10; i++ {
		mustQuery(t, addr, fmt.Sprintf("INSERT INTO s (k, v) VALUES (%d, GAUSSIAN(%d, 2))", i, 10+i))
	}
	// A committed transaction must arrive as one unit.
	{
		c, err := wire.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		for _, sql := range []string{"BEGIN", "INSERT INTO s (k, v) VALUES (100, GAUSSIAN(1, 1))",
			"INSERT INTO s (k, v) VALUES (101, GAUSSIAN(2, 1))", "COMMIT"} {
			if _, err := c.Query(sql); err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
		}
		c.Close()
	}
	// Roll the WAL generation mid-history: the LSN space must carry across.
	mustQuery(t, addr, "CHECKPOINT")
	mustQuery(t, addr, "INSERT INTO s (k, v) VALUES (200, GAUSSIAN(3, 1))")
	mustQuery(t, addr, "ANALYZE s")

	replica := startReplica(t, t.TempDir(), addr)
	defer replica.Shutdown(context.Background()) //nolint:errcheck
	waitCaughtUp(t, leader, replica)

	raddr := replica.Addr().String()
	for _, sql := range []string{
		"SELECT * FROM s WHERE k >= 100",
		"SELECT * FROM s WHERE PROB(v IN [8, 30]) > 0.5 ORDER BY k",
		"SELECT COUNT(k) FROM s",
	} {
		lres := mustQuery(t, addr, sql)
		rres := mustQuery(t, raddr, sql)
		if lres.Table == nil || rres.Table == nil {
			if lres.Affected != rres.Affected {
				t.Fatalf("%s: affected %d vs %d", sql, lres.Affected, rres.Affected)
			}
			continue
		}
		if len(lres.Table.Rows) != len(rres.Table.Rows) {
			t.Fatalf("%s: leader %d rows, replica %d", sql, len(lres.Table.Rows), len(rres.Table.Rows))
		}
	}

	// Writes are refused with the typed read-only error.
	c, err := wire.Dial(raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Query("INSERT INTO s (k, v) VALUES (9, GAUSSIAN(0, 1))")
	var se *wire.ServerError
	if !errors.As(err, &se) || se.Code != wire.ErrReadOnly {
		t.Fatalf("replica write: %v, want ErrReadOnly", err)
	}
}

// TestReplicaCommitUnitGranularity: a transaction left open on the leader
// is invisible on the replica while autocommit work committed after its
// BEGIN arrives; once it commits, the replica applies it whole. (An open
// transaction's statements stay in its session until COMMIT, so they never
// reach the leader's log; the marker-less unit case lives in the wal
// Reader tests and TestReplicaMatchesLeaderAfterTornTxn.)
func TestReplicaCommitUnitGranularity(t *testing.T) {
	leader := startLeader(t, t.TempDir())
	defer leader.Shutdown(context.Background()) //nolint:errcheck
	addr := leader.Addr().String()

	mustQuery(t, addr, "CREATE TABLE u (k INT)")
	mustQuery(t, addr, "INSERT INTO u (k) VALUES (1)")
	mustQuery(t, addr, "CREATE TABLE other (k INT)")

	// Open a transaction, write, and leave it hanging while autocommit work
	// commits. (The concurrent autocommit write goes to a different table
	// so first-writer-wins does not abort the open transaction.)
	open, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer open.Close()
	if _, err := open.Query("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := open.Query("INSERT INTO u (k) VALUES (666)"); err != nil {
		t.Fatal(err)
	}
	if _, err := open.Query("INSERT INTO u (k) VALUES (667)"); err != nil {
		t.Fatal(err)
	}
	mustQuery(t, addr, "INSERT INTO other (k) VALUES (2)")

	replica := startReplica(t, t.TempDir(), addr)
	defer replica.Shutdown(context.Background()) //nolint:errcheck
	waitCaughtUp(t, leader, replica)

	res := mustQuery(t, replica.Addr().String(), "SELECT * FROM u")
	if len(res.Table.Rows) != 1 {
		t.Fatalf("replica sees %d rows, want 1 (uncommitted txn leaked?)", len(res.Table.Rows))
	}
	if res := mustQuery(t, replica.Addr().String(), "SELECT * FROM other"); len(res.Table.Rows) != 1 {
		t.Fatalf("replica missing committed autocommit row (%d rows)", len(res.Table.Rows))
	}

	// Commit now; the replica applies the whole unit.
	if _, err := open.Query("COMMIT"); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, leader, replica)
	res = mustQuery(t, replica.Addr().String(), "SELECT * FROM u")
	if len(res.Table.Rows) != 3 {
		t.Fatalf("replica sees %d rows after commit, want 3", len(res.Table.Rows))
	}
}

// TestReplicaRestartResumes restarts a replica mid-stream and checks it
// resumes from its local log's LSN rather than refetching from zero, and
// that a transaction open on the leader across the replica's restart
// reaches the restarted replica whole once it commits.
func TestReplicaRestartResumes(t *testing.T) {
	leader := startLeader(t, t.TempDir())
	defer leader.Shutdown(context.Background()) //nolint:errcheck
	addr := leader.Addr().String()

	mustQuery(t, addr, "CREATE TABLE r (k INT)")
	mustQuery(t, addr, "INSERT INTO r (k) VALUES (1)")
	open, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer open.Close()
	if _, err := open.Query("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := open.Query("INSERT INTO r (k) VALUES (42)"); err != nil {
		t.Fatal(err)
	}

	rdir := t.TempDir()
	replica := startReplica(t, rdir, addr)
	waitCaughtUp(t, leader, replica)
	lsnBefore := replica.Replica().LSN()
	if lsnBefore == 0 {
		t.Fatal("replica LSN still 0 after catchup")
	}
	if err := replica.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The commit lands while the replica is down.
	if _, err := open.Query("COMMIT"); err != nil {
		t.Fatal(err)
	}
	mustQuery(t, addr, "INSERT INTO r (k) VALUES (2)")

	replica = startReplica(t, rdir, addr)
	defer replica.Shutdown(context.Background()) //nolint:errcheck
	if got := replica.Replica().LSN(); got < lsnBefore {
		t.Fatalf("restarted replica LSN %d rewound below %d", got, lsnBefore)
	}
	waitCaughtUp(t, leader, replica)
	res := mustQuery(t, replica.Addr().String(), "SELECT * FROM r")
	if len(res.Table.Rows) != 3 {
		t.Fatalf("replica sees %d rows, want 3", len(res.Table.Rows))
	}
}

// TestReplicaMatchesLeaderAfterTornTxn: a transaction torn by a crash (its
// statement record durable, its commit marker not) is discarded by the
// leader's recovery. After a checkpoint and a restart the leader's
// transaction IDs start again at 1; a fresh replica must still never apply
// the torn rows, even when the next transaction 1 commits.
func TestReplicaMatchesLeaderAfterTornTxn(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	leader := startLeader(t, dir)
	addr := leader.Addr().String()
	mustQuery(t, addr, "CREATE TABLE o (k INT)")
	mustQuery(t, addr, "INSERT INTO o (k) VALUES (1)")
	if err := leader.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// The torn commit batch: one statement record, no marker.
	m, err := readManifest(vfs.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	l, _, err := wal.Open(vfs.OS, filepath.Join(dir, walFile(m.Gen)))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(wal.TypeTxnStmt, wal.EncodeTxn(1, "INSERT INTO o (k) VALUES (999)")); err != nil {
		t.Fatal(err)
	}
	l.Close()

	leader = startLeader(t, dir)
	mustQuery(t, leader.Addr().String(), "CHECKPOINT")
	if err := leader.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	leader = startLeader(t, dir)
	defer leader.Shutdown(ctx) //nolint:errcheck
	addr = leader.Addr().String()
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{"BEGIN", "INSERT INTO o (k) VALUES (2)", "COMMIT"} {
		if _, err := c.Query(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	c.Close()

	replica := startReplica(t, t.TempDir(), addr)
	defer replica.Shutdown(ctx) //nolint:errcheck
	waitCaughtUp(t, leader, replica)
	lres := mustQuery(t, addr, "SELECT * FROM o")
	rres := mustQuery(t, replica.Addr().String(), "SELECT * FROM o")
	if len(lres.Table.Rows) != 2 || len(rres.Table.Rows) != len(lres.Table.Rows) {
		t.Fatalf("leader has %d rows, replica %d; want 2 on both", len(lres.Table.Rows), len(rres.Table.Rows))
	}
}

// TestFetchWALRefusedWithoutShipping: a leader without ship-wal answers
// WALFetch with an error frame, not a hang or a truncated segment.
func TestFetchWALRefusedWithoutShipping(t *testing.T) {
	s, err := New(Config{Addr: "127.0.0.1:0", DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background()) //nolint:errcheck
	c, err := wire.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.FetchWAL(0, 1024); err == nil {
		t.Fatal("fetch accepted without shipping enabled")
	}
}

// TestShipWALRequiresFullChain: enabling ship-wal on a directory whose
// earlier generations were already garbage-collected must refuse to open —
// shipping a history with holes would silently desynchronize replicas.
func TestShipWALRequiresFullChain(t *testing.T) {
	dir := t.TempDir()
	// Boot without shipping and force a generation roll: gen 0's log is
	// deleted by the checkpoint GC.
	e, err := OpenEngine(EngineConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute("CREATE TABLE t (k INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute("CHECKPOINT"); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenEngine(EngineConfig{Dir: dir, ShipWAL: true}); err == nil {
		t.Fatal("ship-wal opened over a truncated generation chain")
	}
}
