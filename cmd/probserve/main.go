// Command probserve runs the probabilistic database as a network server:
// a TCP listener speaking the internal/wire protocol, each connection's
// statements executed on its own goroutine under a -workers cap, and
// optional crash-safe persistence of base tables under a data directory
// (write-ahead log + checksummed heap snapshots; see docs/DURABILITY.md).
// On startup the server recovers the directory — replaying any log records
// a crash left behind — before accepting clients.
//
// Usage:
//
//	probserve -addr :7432 -data-dir ./data -workers 4 -max-conns 64
//
// Connect with:
//
//	probql -connect localhost:7432
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"probdb/internal/server"
)

func main() {
	addr := flag.String("addr", ":7432", "TCP listen address")
	maxConns := flag.Int("max-conns", 64, "maximum concurrent client connections")
	workers := flag.Int("workers", 4, "maximum concurrently executing queries")
	queueDepth := flag.Int("queue-depth", 0, "statements per admission class that may wait for a -workers slot (default 4×workers)")
	queryTimeout := flag.Duration("query-timeout", 30*time.Second, "per-query budget: queue wait plus execution")
	dataDir := flag.String("data-dir", "", "directory for WAL + table heap snapshots (empty: in-memory only)")
	ckptBytes := flag.Int64("checkpoint-bytes", 1<<20,
		"checkpoint (fold the WAL into heap snapshots) when the log exceeds this many bytes; <0 disables auto-checkpointing")
	memBudget := flag.Int64("mem-budget", 0,
		"server-wide memory budget in bytes for operator buffers, caches and snapshots (0: accounting off)")
	sessionMem := flag.Int64("session-mem", 0, "per-connection memory cap in bytes (0: unlimited within -mem-budget)")
	queryMem := flag.Int64("query-mem", 0, "per-query memory cap in bytes (0: unlimited within -session-mem)")
	admitReads := flag.Int("admit-reads", 0, "read statements queued or running at once (default workers+queue-depth)")
	admitWrites := flag.Int("admit-writes", 0, "write statements queued or running at once (default workers+queue-depth)")
	admitTxns := flag.Int("admit-txns", 0, "transaction statements queued or running at once (default workers+queue-depth)")
	retryAfter := flag.Duration("retry-after", 0, "backoff hint sent with overload rejections (default 100ms)")
	minDiskFree := flag.Int64("min-disk-free", 0,
		"flip the engine read-only when the data dir's filesystem has fewer free bytes than this (0: watchdog off)")
	shipWAL := flag.Bool("ship-wal", false,
		"serve WAL segments to replicas (leader side of replication; implies keeping segments a replica may still need)")
	replicaOf := flag.String("replica-of", "",
		"run as a read replica tailing this leader's WAL (host:port); the server is read-only")
	replicaPoll := flag.Duration("replica-poll", 0, "replica poll interval when the leader has no new WAL (default 100ms)")
	flag.Parse()

	if *dataDir != "" {
		log.Printf("probserve: opening data dir %s (recovery replays any WAL tail)", *dataDir)
	}
	s, err := server.New(server.Config{
		Addr:            *addr,
		MaxConns:        *maxConns,
		Workers:         *workers,
		QueueDepth:      *queueDepth,
		QueryTimeout:    *queryTimeout,
		DataDir:         *dataDir,
		CheckpointBytes: *ckptBytes,
		Logf:            log.Printf,
		MemBudget:       *memBudget,
		SessionMem:      *sessionMem,
		QueryMem:        *queryMem,
		AdmitReads:      *admitReads,
		AdmitWrites:     *admitWrites,
		AdmitTxns:       *admitTxns,
		RetryAfterHint:  *retryAfter,
		MinDiskFree:     *minDiskFree,
		ShipWAL:         *shipWAL,
		ReplicaOf:       *replicaOf,
		ReplicaPoll:     *replicaPoll,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "probserve:", err)
		os.Exit(1)
	}
	// Degraded-but-up is a state worth shouting about: recovery may have
	// skipped records it could not apply (the tables involved are
	// quarantined). HEALTH reports the same list to clients.
	if rerrs := s.Engine().ReplayErrors(); len(rerrs) > 0 {
		log.Printf("probserve: recovery skipped %d WAL record(s); affected tables are quarantined:", len(rerrs))
		for _, re := range rerrs {
			log.Printf("probserve:   replay: %v", re)
		}
	}
	if err := s.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "probserve:", err)
		os.Exit(1)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	log.Println("probserve: draining...")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "probserve: shutdown:", err)
		os.Exit(1)
	}
}
