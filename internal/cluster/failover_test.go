package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"probdb/internal/server"
	"probdb/internal/wire"
)

// startReplica boots a read replica tailing leaderAddr's WAL.
func startReplica(t *testing.T, dir, leaderAddr string) *server.Server {
	t.Helper()
	s, err := server.New(server.Config{
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

// waitCaughtUp blocks until the replica's applied LSN reaches the leader's
// durable frontier — the precondition of every "replica has everything"
// assertion.
func waitCaughtUp(t *testing.T, leader, replica *server.Server) {
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

// TestClusterLeaderKillReplicaFailover is the WAL-shipping acceptance test:
// every shard has a replica tailing its leader's WAL; after the leaders are
// crash-killed, the router must serve the same reads from the replicas —
// byte-identical to the answers the live leaders gave — while writes come
// back as typed retryable refusals.
func TestClusterLeaderKillReplicaFailover(t *testing.T) {
	h := newHarness(t, 2)
	replicas := make([]*server.Server, len(h.shards))
	for i, s := range h.shards {
		replicas[i] = startReplica(t, t.TempDir(), s.Addr().String())
		h.specs[i].Replica = replicas[i].Addr().String()
	}
	t.Cleanup(func() {
		for _, r := range replicas {
			r.Shutdown(context.Background()) //nolint:errcheck
		}
	})
	// Rebuild the router with the replica addresses wired in.
	if err := h.router.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	h.router = startRouter(t, h.dir, h.specs)
	addr := h.router.Addr().String()

	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck
	mustExec := func(sql string) {
		t.Helper()
		if _, err := c.Query(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	mustExec(`CREATE TABLE m (id INT, temp FLOAT UNCERTAIN, score FLOAT)`)
	for i := 0; i < 30; i++ {
		mustExec(fmt.Sprintf(
			`INSERT INTO m (id, temp, score) VALUES (%d, GAUSSIAN(%d.0, 2.0), %d.5)`, i, i, i%5))
	}
	mustExec(`DELETE FROM m WHERE score > 4.0`)

	queries := []string{
		`SELECT * FROM m`,
		`SELECT id, score FROM m ORDER BY score DESC LIMIT 8`,
		`SELECT * FROM m WHERE PROB(temp) >= 0.5 ORDER BY PROB(temp) LIMIT 6`,
		`SELECT * FROM m WHERE id = 3`,
	}
	before := make([]string, len(queries))
	for i, q := range queries {
		before[i] = render(t, addr, q)
	}

	// Let both replicas reach their leader's durable frontier, then crash
	// both leaders.
	for i := range h.shards {
		waitCaughtUp(t, h.shards[i], replicas[i])
	}
	h.killShard(0)
	h.killShard(1)

	// Reads must degrade to the replicas and return exactly what the live
	// leaders returned: the replicas hold every committed write. A fresh
	// connection proves failover works without prior session state.
	for i, q := range queries {
		if got := render(t, addr, q); got != before[i] {
			t.Fatalf("replica read diverged for %s\n--- replicas ---\n%s--- leaders ---\n%s", q, got, before[i])
		}
	}

	// Writes cannot degrade: the replica is read-only, so the router
	// refuses with a typed retryable error.
	_, err = c.Query(`INSERT INTO m (id, temp, score) VALUES (99, GAUSSIAN(1.0, 1.0), 0.5)`)
	var se *wire.ServerError
	if !errors.As(err, &se) || se.Code != wire.ErrShardUnavailable {
		t.Fatalf("write with dead leaders: %v, want ErrShardUnavailable", err)
	}
	if !se.Retryable() {
		t.Fatal("shard-unavailable must be retryable")
	}

	// HEALTH reflects the degradation.
	res, err := c.Query(`HEALTH`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Message, "down") {
		t.Fatalf("router HEALTH after leader kill = %q", res.Message)
	}
}
