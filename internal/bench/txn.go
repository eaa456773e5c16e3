package bench

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"probdb/internal/server"
)

// TxnConfig parameterizes the group-commit experiment: one persistent
// engine, swept over session counts; every session issues small autocommit
// INSERTs (each a transaction of its own) as fast as the WAL acks them. The
// quantity of interest is fsyncs per transaction — group commit exists to
// push it below 1 under concurrency — with commit latency and throughput
// alongside.
type TxnConfig struct {
	Sessions []int // concurrent committers per sweep point
	Commits  int   // commits per session
	Seed     int64
}

// DefaultTxn is the acceptance setup: 1..16 sessions, 300 commits each.
// The acceptance bar is fsyncs/txn < 1 from 8 sessions up.
var DefaultTxn = TxnConfig{
	Sessions: []int{1, 2, 4, 8, 16},
	Commits:  300,
	Seed:     20080412,
}

// TxnRow is one session-count sweep point.
type TxnRow struct {
	Sessions     int           `json:"sessions"`
	Commits      int           `json:"commits"`
	Wall         time.Duration `json:"wall_ns"`
	Fsyncs       uint64        `json:"fsyncs"`
	FsyncsPerTxn float64       `json:"fsyncs_per_txn"`
	MeanGroup    float64       `json:"mean_group_records"`
	MaxGroup     uint64        `json:"max_group_records"`
	MeanCommit   time.Duration `json:"mean_commit_latency_ns"`
	P95Commit    time.Duration `json:"p95_commit_latency_ns"`
	CommitsPerS  float64       `json:"commits_per_sec"`
}

// Txn runs the experiment. Each sweep point gets a fresh data directory so
// WAL growth from one point never shapes the next.
func Txn(cfg TxnConfig) ([]TxnRow, error) {
	if len(cfg.Sessions) == 0 {
		cfg = DefaultTxn
	}
	var out []TxnRow
	for _, n := range cfg.Sessions {
		row, err := txnPoint(n, cfg.Commits)
		if err != nil {
			return nil, fmt.Errorf("bench: txn sessions=%d: %w", n, err)
		}
		out = append(out, row)
	}
	return out, nil
}

func txnPoint(sessions, commits int) (TxnRow, error) {
	dir, err := os.MkdirTemp("", "probdb-txnbench-*")
	if err != nil {
		return TxnRow{}, err
	}
	defer os.RemoveAll(dir) //nolint:errcheck
	// Auto-checkpointing stays off: a checkpoint mid-sweep would fold the
	// WAL and pollute the fsync count with snapshot I/O.
	e, err := server.OpenEngine(server.EngineConfig{Dir: dir, CheckpointBytes: -1})
	if err != nil {
		return TxnRow{}, err
	}
	defer e.Close() //nolint:errcheck
	if _, err := e.Execute("CREATE TABLE ingest (rid INT, value FLOAT UNCERTAIN)"); err != nil {
		return TxnRow{}, err
	}
	base := e.GroupCommitStats()

	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		lats []time.Duration
		ferr error
	)
	start := time.Now()
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			ses := e.NewSession()
			defer ses.Close()
			local := make([]time.Duration, 0, commits)
			for i := 0; i < commits; i++ {
				rid := s*commits + i
				sql := fmt.Sprintf(
					"INSERT INTO ingest (rid, value) VALUES (%d, GAUSSIAN(%d, 4))", rid, 10+rid%50)
				t0 := time.Now()
				if _, err := ses.Execute(sql); err != nil {
					mu.Lock()
					if ferr == nil {
						ferr = err
					}
					mu.Unlock()
					return
				}
				local = append(local, time.Since(t0))
			}
			mu.Lock()
			lats = append(lats, local...)
			mu.Unlock()
		}(s)
	}
	wg.Wait()
	wall := time.Since(start)
	if ferr != nil {
		return TxnRow{}, ferr
	}
	st := e.GroupCommitStats()
	fsyncs := st.Fsyncs - base.Fsyncs
	records := st.Records - base.Records
	total := sessions * commits
	if int(records) != total {
		return TxnRow{}, fmt.Errorf("WAL saw %d records, expected %d commits", records, total)
	}

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	var sum time.Duration
	for _, l := range lats {
		sum += l
	}
	return TxnRow{
		Sessions:     sessions,
		Commits:      total,
		Wall:         wall,
		Fsyncs:       fsyncs,
		FsyncsPerTxn: float64(fsyncs) / float64(total),
		MeanGroup:    float64(records) / float64(fsyncs),
		MaxGroup:     st.MaxGroup,
		MeanCommit:   sum / time.Duration(len(lats)),
		P95Commit:    lats[len(lats)*95/100],
		CommitsPerS:  float64(total) / wall.Seconds(),
	}, nil
}

// FormatTxn renders the experiment as a table.
func FormatTxn(rows []TxnRow) string {
	s := "Group-commit WAL: fsyncs per transaction and commit latency vs concurrent sessions\n"
	s += fmt.Sprintf("%-10s %-9s %-10s %-8s %-11s %-10s %-10s %-12s %-12s\n",
		"sessions", "commits", "wall", "fsyncs", "fsyncs/txn", "avg group", "max group", "mean commit", "p95 commit")
	for _, r := range rows {
		s += fmt.Sprintf("%-10d %-9d %-10v %-8d %-11.3f %-10.1f %-10d %-12v %-12v\n",
			r.Sessions, r.Commits, r.Wall.Round(time.Millisecond), r.Fsyncs,
			r.FsyncsPerTxn, r.MeanGroup, r.MaxGroup,
			r.MeanCommit.Round(time.Microsecond), r.P95Commit.Round(time.Microsecond))
	}
	return s
}
