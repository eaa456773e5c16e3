// Command probgen generates the paper's synthetic workloads (§IV) as
// stand-alone artifacts: a Readings(rid, value) heap file in a chosen pdf
// representation, and a text file of range queries. The files feed external
// tooling or repeated probbench runs without regeneration.
//
// With -connect it instead becomes a continuous-ingest load generator: N
// writer connections stream INSERTs of tuple-level-uncertain readings
// (partial DISCRETE pdfs, whose mass deficit is the probability the tuple
// does not exist) at a probserve server for a fixed duration — the write
// traffic the group-commit WAL is built for.
//
// Usage:
//
//	probgen -n 100000 -repr symbolic|hist5|discrete25 -out readings.pages \
//	        -queries 1000 -qout queries.txt [-seed N]
//	probgen -connect localhost:7432 -writers 8 -duration 10s [-txn 4]
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	"probdb/internal/bench"
	"probdb/internal/bench/pages"
	"probdb/internal/govern"
	"probdb/internal/wire"
	"probdb/internal/workload"
)

func main() {
	n := flag.Int("n", 100_000, "number of readings")
	repr := flag.String("repr", "symbolic", "pdf representation: symbolic, hist5, discrete25")
	out := flag.String("out", "readings.pages", "output heap file")
	nq := flag.Int("queries", 1000, "number of range queries")
	qout := flag.String("qout", "queries.txt", "output query file (lo hi per line)")
	seed := flag.Int64("seed", 20080408, "workload seed")
	skew := flag.Float64("skew", 0, "power-law skew of the value means (0 = paper-uniform); "+
		"skewed datasets give ANALYZE histograms a non-flat profile to estimate from")
	connect := flag.String("connect", "", "host:port of a probserve server: stream INSERTs instead of writing files")
	writers := flag.Int("writers", 4, "with -connect, concurrent writer connections")
	duration := flag.Duration("duration", 10*time.Second, "with -connect, how long to sustain the ingest")
	txnSize := flag.Int("txn", 0, "with -connect, INSERTs per transaction (0 = autocommit)")
	table := flag.String("table", "ingest", "with -connect, target table (created if absent)")
	flag.Parse()

	if *connect != "" {
		if err := runIngest(*connect, *table, *writers, *txnSize, *duration, *seed); err != nil {
			fatal(err)
		}
		return
	}

	rp := bench.Repr(*repr)
	switch rp {
	case bench.ReprSymbolic, bench.ReprHist5, bench.ReprDiscrete25:
	default:
		fatal(fmt.Errorf("unknown representation %q", *repr))
	}

	if err := os.Remove(*out); err != nil && !os.IsNotExist(err) {
		fatal(err)
	}
	fp, err := pages.OpenFile(*out)
	if err != nil {
		fatal(err)
	}
	pool := pages.NewPool(fp, 64)
	heap := pages.NewHeap(pool)
	gen := workload.NewGen(*seed)
	var bytes int64
	for i := 0; i < *n; i++ {
		var rd workload.Reading
		if *skew > 0 {
			rd = gen.SkewedReading(int64(i), *skew)
		} else {
			rd = gen.Reading(int64(i))
		}
		rec := workload.EncodeReading(workload.Reading{RID: rd.RID, Value: bench.ConvertRepr(rp, rd.Value)})
		bytes += int64(len(rec))
		if _, err := heap.Append(rec); err != nil {
			fatal(err)
		}
	}
	if err := pool.Flush(); err != nil {
		fatal(err)
	}
	if err := fp.Sync(); err != nil {
		fatal(err)
	}
	if err := fp.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %d readings (%s, %.1f B/tuple, %d pages) to %s\n",
		*n, rp, float64(bytes)/float64(*n), heap.NumPages(), *out)

	qf, err := os.Create(*qout)
	if err != nil {
		fatal(err)
	}
	w := bufio.NewWriter(qf)
	for _, q := range gen.RangeQueries(*nq) {
		fmt.Fprintf(w, "%g %g\n", q.Lo, q.Hi)
	}
	if err := w.Flush(); err != nil {
		fatal(err)
	}
	if err := qf.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %d range queries to %s\n", *nq, *qout)
}

// runIngest drives the continuous-ingest mode: each writer owns one
// connection and streams INSERTs of tuple-level-uncertain readings until the
// deadline, optionally grouped into transactions. Conflicted transactions
// (first-writer-wins losers) are retried and counted, not fatal.
func runIngest(addr, table string, writers, txnSize int, d time.Duration, seed int64) error {
	setup, err := wire.DialRetry(addr, wire.RetryConfig{Attempts: 5})
	if err != nil {
		return err
	}
	if _, err := setup.Query(fmt.Sprintf("CREATE TABLE %s (rid INT, value FLOAT UNCERTAIN)", table)); err != nil {
		if !strings.Contains(err.Error(), "exists") {
			setup.Close() //nolint:errcheck
			return err
		}
	}
	setup.Close() //nolint:errcheck

	type tally struct {
		rows, commits, fsyncs, groupSum, conflicts uint64
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		total tally
		werr  error
	)
	deadline := time.Now().Add(d)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := wire.DialRetry(addr, wire.RetryConfig{Attempts: 5})
			if err != nil {
				mu.Lock()
				if werr == nil {
					werr = err
				}
				mu.Unlock()
				return
			}
			defer c.Close() //nolint:errcheck
			r := rand.New(rand.NewSource(seed + int64(w)))
			var local tally
			rid := int64(w) << 32
			insert := func() (*wire.Result, error) {
				rid++
				// A partial pdf: the two points' mass sums below 1, the
				// deficit being the probability the reading never happened
				// (paper §2: tuple-level uncertainty).
				v := 10 + r.Float64()*40
				exist := 0.6 + r.Float64()*0.35
				p1 := exist * (0.3 + 0.4*r.Float64())
				sql := fmt.Sprintf(
					"INSERT INTO %s (rid, value) VALUES (%d, DISCRETE(%.3f:%.3f, %.3f:%.3f))",
					table, rid, v, p1, v+1, exist-p1)
				if txnSize <= 0 {
					// Autocommit: a typed overload/budget refusal was never
					// executed, so resubmitting with backoff is safe.
					return c.QueryRetry(sql, 5)
				}
				return c.Query(sql)
			}
			commit := func() error {
				if txnSize <= 0 {
					res, err := insert()
					if err != nil {
						return err
					}
					local.rows++
					local.commits++
					local.fsyncs += res.Stats.WALFsyncs
					local.groupSum += res.Stats.WALGroupSize
					return nil
				}
				// A lost first-writer-wins race aborts the whole
				// transaction; re-run it from BEGIN with capped exponential
				// backoff before giving up on the batch.
				const maxConflictRetries = 5
				for attempt := 0; ; attempt++ {
					if _, err := c.Query("BEGIN"); err != nil {
						return err
					}
					for i := 0; i < txnSize; i++ {
						if _, err := insert(); err != nil {
							c.Query("ROLLBACK") //nolint:errcheck
							return err
						}
					}
					res, err := c.Query("COMMIT")
					if err != nil {
						if strings.Contains(err.Error(), "conflict") {
							local.conflicts++
							if attempt < maxConflictRetries {
								time.Sleep(govern.Backoff(attempt, 5*time.Millisecond, 250*time.Millisecond))
								continue
							}
							return nil // capped out; move on to fresh rows
						}
						return err
					}
					local.rows += uint64(txnSize)
					local.commits++
					local.fsyncs += res.Stats.WALFsyncs
					local.groupSum += res.Stats.WALGroupSize
					return nil
				}
			}
			for time.Now().Before(deadline) {
				if err := commit(); err != nil {
					mu.Lock()
					if werr == nil {
						werr = fmt.Errorf("writer %d: %w", w, err)
					}
					mu.Unlock()
					return
				}
			}
			mu.Lock()
			total.rows += local.rows
			total.commits += local.commits
			total.fsyncs += local.fsyncs
			total.groupSum += local.groupSum
			total.conflicts += local.conflicts
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	if werr != nil {
		return werr
	}
	if total.commits == 0 {
		return errors.New("ingest made no progress")
	}
	secs := d.Seconds()
	fmt.Printf("ingested %d rows in %d commits over %v with %d writers (%.0f rows/s)\n",
		total.rows, total.commits, d, writers, float64(total.rows)/secs)
	fmt.Printf("group commit: %.3f fsyncs/commit, mean group %.1f records; %d txn conflicts\n",
		float64(total.fsyncs)/float64(total.commits),
		float64(total.groupSum)/float64(total.commits), total.conflicts)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "probgen:", err)
	os.Exit(1)
}
