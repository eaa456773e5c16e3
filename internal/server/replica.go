package server

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"probdb/internal/govern"
	"probdb/internal/vfs"
	"probdb/internal/wal"
	"probdb/internal/wire"
)

// replicaWALFile is the replica's local durable copy of the leader's record
// stream. It is a normal WAL file, byte-identical to the leader's
// concatenated generations: record encoding is deterministic (length, CRC,
// type, payload), so re-appending decoded records reproduces the exact
// shipped bytes and the file's stream length IS the replica's LSN.
const replicaWALFile = "replica.wal"

// ReplicaConfig tunes a read replica. Zero values take the documented
// defaults.
type ReplicaConfig struct {
	// Dir holds replica.wal, the locally durable copy of the shipped
	// history. Required: a replica with no local log would restart at LSN 0
	// and re-pull the world.
	Dir string
	// Leader is the leader server's address ("host:port").
	Leader string
	// Poll is the idle cadence between fetches once caught up. Default
	// 100ms.
	Poll time.Duration
	// MaxFetch bounds one pull's record bytes. Default 1 MiB.
	MaxFetch uint64
	// FS, Logf mirror EngineConfig.
	FS   vfs.FS
	Logf func(format string, args ...any)
}

func (c *ReplicaConfig) fill() {
	if c.Poll <= 0 {
		c.Poll = 100 * time.Millisecond
	}
	if c.MaxFetch == 0 {
		c.MaxFetch = 1 << 20
	}
	if c.FS == nil {
		c.FS = vfs.OS
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// Replica tails a leader's WAL over the wire protocol and applies committed
// work to an ephemeral engine serving read-only queries, through the
// ordinary recovery path: the same wal.Reader and Engine.replay. The
// leader ships only fsync-acknowledged bytes, so the stream holds whole
// commit units; a fetch may still end inside one, and that unit stays open
// in the reader until its commit marker arrives. At restart the local log
// is cut back to its last whole unit like any WAL, and the partial tail is
// re-fetched — so the replica exposes exactly the leader's committed
// prefix, at commit-unit granularity.
type Replica struct {
	cfg ReplicaConfig
	eng *Engine
	log *wal.Log

	mu  sync.Mutex
	lsn int64
	rd  wal.Reader // holds the unit a fetch boundary split

	quit chan struct{}
	done chan struct{}
}

// OpenReplica opens (or creates) the replica's local log, replays it into a
// fresh ephemeral engine, and returns the replica ready to Start. The
// engine is declared read-only so client writes are refused with a typed,
// non-retryable-here error pointing at the leader.
func OpenReplica(cfg ReplicaConfig) (*Replica, error) {
	cfg.fill()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("server: replica needs a directory for its local log")
	}
	if err := cfg.FS.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: replica dir: %w", err)
	}
	eng, err := OpenEngine(EngineConfig{Logf: cfg.Logf})
	if err != nil {
		return nil, err
	}
	eng.SetReadOnly("replica: this node applies the leader's WAL; send writes to the leader")

	path := filepath.Join(cfg.Dir, replicaWALFile)
	var (
		log  *wal.Log
		recs []wal.Record
	)
	if _, serr := cfg.FS.Stat(path); serr != nil {
		log, err = wal.Create(cfg.FS, path)
		if err == nil {
			err = cfg.FS.SyncDir(cfg.Dir)
		}
	} else {
		// Open truncates a torn tail (a crash mid-append) and a unit whose
		// marker had not arrived: neither was applied, and the next fetch
		// simply re-pulls them from the leader.
		log, recs, err = wal.Open(cfg.FS, path)
	}
	if err != nil {
		return nil, fmt.Errorf("server: replica log: %w", err)
	}
	r := &Replica{
		cfg:  cfg,
		eng:  eng,
		log:  log,
		lsn:  log.StreamLen(),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	eng.replay(&r.rd, recs) // past the read-only gate: the replica's one writer
	if len(recs) > 0 {
		cfg.Logf("probserve: replica: replayed %d local WAL record(s), resuming at LSN %d", len(recs), r.lsn)
	}
	return r, nil
}

// Engine exposes the replica's catalog for serving reads.
func (r *Replica) Engine() *Engine { return r.eng }

// LSN reports the replica's durable stream length — how far behind the
// leader it is, in the shared byte coordinate.
func (r *Replica) LSN() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return uint64(r.lsn)
}

// Start launches the tail loop.
func (r *Replica) Start() { go r.tail() }

// Stop ends the tail loop, waits for it, and closes the local log and
// engine.
func (r *Replica) Stop() {
	close(r.quit)
	<-r.done
	r.log.Close() //nolint:errcheck
	r.eng.Close() //nolint:errcheck
}

func (r *Replica) stopping() bool {
	select {
	case <-r.quit:
		return true
	default:
		return false
	}
}

// sleep waits d or until Stop, whichever first.
func (r *Replica) sleep(d time.Duration) {
	select {
	case <-r.quit:
	case <-time.After(d):
	}
}

// tail is the pull loop: fetch from the leader at the local LSN, persist
// the shipped bytes locally, apply, repeat. Connection failures reconnect
// on the shared jittered-backoff curve; the leader being down degrades the
// replica to serving its last durable state, never to an error.
func (r *Replica) tail() {
	defer close(r.done)
	var cli *wire.Client
	defer func() {
		if cli != nil {
			cli.Close() //nolint:errcheck
		}
	}()
	fails := 0
	for !r.stopping() {
		if cli == nil {
			c, err := wire.Dial(r.cfg.Leader)
			if err != nil {
				fails++
				r.sleep(govern.Backoff(fails-1, 50*time.Millisecond, 2*time.Second))
				continue
			}
			cli = c
		}
		seg, err := cli.FetchWAL(r.LSN(), r.cfg.MaxFetch)
		if err != nil {
			r.cfg.Logf("probserve: replica: fetch at LSN %d: %v", r.LSN(), err)
			cli.Close() //nolint:errcheck
			cli = nil
			fails++
			r.sleep(govern.Backoff(fails-1, 50*time.Millisecond, 2*time.Second))
			continue
		}
		fails = 0
		if err := r.ingest(seg); err != nil {
			// A bad segment (CRC damage in flight, or a leader whose history
			// diverged from ours) must not reach the local log; drop the
			// connection and re-pull rather than persist it.
			r.cfg.Logf("probserve: replica: rejected segment at LSN %d: %v", r.LSN(), err)
			cli.Close() //nolint:errcheck
			cli = nil
			fails++
			r.sleep(govern.Backoff(fails-1, 50*time.Millisecond, 2*time.Second))
			continue
		}
		if len(seg.Records) == 0 {
			r.sleep(r.cfg.Poll) // caught up
		}
	}
}

// ingest verifies one shipped segment, makes it locally durable, and
// applies its committed units. Verification is strict: the segment must
// start exactly at our LSN and decode completely as whole checksummed
// records — a partial decode means damage, and persisting damaged history
// would replicate the corruption we exist to survive.
func (r *Replica) ingest(seg *wire.WALSegment) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if seg.BaseLSN != uint64(r.lsn) {
		return fmt.Errorf("segment starts at %d, want %d", seg.BaseLSN, r.lsn)
	}
	if len(seg.Records) == 0 {
		return nil
	}
	recs, n := wal.Decode(seg.Records)
	if n != int64(len(seg.Records)) || len(recs) == 0 {
		return fmt.Errorf("segment not record-aligned (%d of %d bytes decode)", n, len(seg.Records))
	}
	if err := r.log.AppendBatch(recs); err != nil {
		return fmt.Errorf("local log: %w", err)
	}
	r.eng.replay(&r.rd, recs)
	r.lsn += n
	return nil
}
