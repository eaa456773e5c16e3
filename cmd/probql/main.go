// Command probql is an interactive shell (and script runner) for the
// probabilistic database: the front door the paper's PostgreSQL+Orion stack
// provided via psql. It runs either against an embedded in-process engine or,
// with -connect, as a network client of a probserve server.
//
// Usage:
//
//	probql                        # interactive, embedded engine
//	probql -f demo.sql            # run a script, embedded engine
//	probql -connect localhost:7432            # interactive, remote server
//	probql -connect localhost:7432 -f demo.sql
//
// Example session:
//
//	probql> CREATE TABLE readings (rid INT, value FLOAT UNCERTAIN);
//	probql> INSERT INTO readings (rid, value) VALUES (1, GAUSSIAN(20, 5));
//	probql> SELECT rid FROM readings WHERE value < 25 AND PROB(value) > 0.5;
//
// In remote mode tabular results stream: rows print as the server's
// RowBatch frames arrive, so the first rows of a large scan appear before
// the scan finishes. Each result is followed by the server's per-query
// stats (rows, latency, WAL bytes).
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"probdb/internal/govern"
	"probdb/internal/query"
	"probdb/internal/wire"
)

// executor abstracts over the embedded engine and a remote connection so the
// REPL loop is shared.
type executor interface {
	execScript(sql string) error // prints results; returns first error
	openTxn() bool               // a BEGIN is pending (prompt indicator)
	close()
}

func main() {
	script := flag.String("f", "", "execute the statements in this file and exit")
	connect := flag.String("connect", "", "host:port of a probserve server (default: embedded engine)")
	showStats := flag.Bool("stats", true, "in remote mode, print per-query I/O stats")
	timeout := flag.Duration("timeout", wire.DefaultCallTimeout,
		"in remote mode, per-query deadline (0 disables)")
	retries := flag.Int("retries", 5,
		"in remote mode, connection attempts with backoff (a restarting server may still be replaying its WAL)")
	flag.Parse()

	var ex executor
	if *connect != "" {
		c, err := wire.DialRetry(*connect, wire.RetryConfig{Attempts: *retries})
		if err != nil {
			fatal(err)
		}
		c.SetCallTimeout(*timeout)
		if err := c.Ping(); err != nil {
			fatal(fmt.Errorf("ping %s: %w", *connect, err))
		}
		ex = &remoteExec{c: c, stats: *showStats}
	} else {
		ex = &localExec{db: query.Open()}
	}
	defer ex.close()

	if *script != "" {
		src, err := os.ReadFile(*script)
		if err != nil {
			fatal(err)
		}
		if err := ex.execScript(string(src)); err != nil {
			fatal(err)
		}
		return
	}

	if *connect != "" {
		fmt.Printf("probdb shell — connected to %s; statements end with ';', \\q quits\n", *connect)
	} else {
		fmt.Println("probdb shell — statements end with ';', \\q quits")
	}
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 0, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := "probql> "
	for {
		fmt.Print(prompt)
		if !in.Scan() {
			fmt.Println()
			return
		}
		line := in.Text()
		if buf.Len() == 0 {
			trimmed := strings.TrimSpace(line)
			if trimmed == `\q` || trimmed == "quit" || trimmed == "exit" {
				return
			}
			if trimmed == "" {
				continue
			}
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if !strings.Contains(line, ";") {
			prompt = "   ...> "
			continue
		}
		if err := ex.execScript(buf.String()); err != nil {
			fmt.Println("error:", err)
		}
		buf.Reset()
		if ex.openTxn() {
			prompt = "probql*> " // inside a transaction: COMMIT or ROLLBACK ends it
		} else {
			prompt = "probql> "
		}
	}
}

type localExec struct{ db *query.DB }

func (l *localExec) execScript(sql string) error {
	results, err := l.db.ExecScript(sql)
	for _, r := range results {
		fmt.Println(r)
	}
	return err
}

func (l *localExec) openTxn() bool { return false } // embedded engine is autocommit-only

func (l *localExec) close() {}

type remoteExec struct {
	c     *wire.Client
	stats bool
	inTxn bool // last result's transaction flag, for the prompt indicator
}

// queryStreamRetry submits one statement, resubmitting after retryable
// server refusals — overload, budget pressure, queue deadlines, declared
// read-only: all guaranteed never executed — honoring the server's
// RetryAfter hint (jittered) when one was sent. Inside an explicit
// transaction it never retries: a refused statement aborts the txn's
// intent, and replaying one statement is not replaying the transaction.
func (r *remoteExec) queryStreamRetry(stmt string) (*wire.Stream, error) {
	const attempts = 5
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			se, _ := lastErr.(*wire.ServerError)
			if se != nil && se.RetryAfter > 0 {
				time.Sleep(govern.Jitter(se.RetryAfter))
			} else {
				time.Sleep(govern.Backoff(i-1, 50*time.Millisecond, 2*time.Second))
			}
		}
		st, err := r.c.QueryStream(stmt)
		if err == nil {
			return st, nil
		}
		var se *wire.ServerError
		if r.inTxn || !errors.As(err, &se) || !se.Retryable() {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "probql: server refused (%v); backing off and retrying\n", err)
		lastErr = err
	}
	return nil, lastErr
}

func (r *remoteExec) execScript(sql string) error {
	for _, stmt := range splitStatements(sql) {
		st, err := r.queryStreamRetry(stmt)
		if err != nil {
			return err
		}
		var res *wire.Result
		if cols := st.Columns(); cols != nil {
			// Tabular result: print the header now and each batch as it
			// arrives, so a long scan shows its first rows immediately.
			fmt.Println(wire.HeaderLine(st.Name(), cols))
			for {
				rows, err := st.NextBatch()
				if err != nil {
					return err
				}
				if rows == nil {
					break
				}
				for _, row := range rows {
					fmt.Println(wire.RenderRow(cols, row))
				}
			}
			if res, err = st.Result(); err != nil {
				return err
			}
			fmt.Println()
		} else {
			// Command result (INSERT, CREATE, ...): a message, no rows.
			if res, err = st.Result(); err != nil {
				return err
			}
			fmt.Println(res)
		}
		r.inTxn = res.InTxn
		if r.stats {
			s := res.Stats
			fmt.Printf("-- %d rows, %dµs, %d WAL bytes\n", s.Rows, s.LatencyMicros, s.WALBytes)
			fmt.Printf("-- planner: %d index probes, %d pruned, %d fallbacks\n",
				s.IndexProbes, s.IndexPruned, s.PlannerFallbacks)
			if s.VecTuples > 0 || s.ScalarTuples > 0 {
				fmt.Printf("-- kernels: %d tuples vectorized, %d scalar\n",
					s.VecTuples, s.ScalarTuples)
			}
			if s.WALGroupSize > 0 || s.TxnConflicts > 0 {
				fmt.Printf("-- txn: %d fsyncs, group of %d records, %d conflicts\n",
					s.WALFsyncs, s.WALGroupSize, s.TxnConflicts)
			}
			if s.QueueWaitMicros > 0 || s.Rejections > 0 || s.ShedBytes > 0 {
				fmt.Printf("-- govern: %dµs queue wait; server totals: %d rejections, %d bytes shed\n",
					s.QueueWaitMicros, s.Rejections, s.ShedBytes)
			}
		}
	}
	return nil
}

func (r *remoteExec) openTxn() bool { return r.inTxn }

func (r *remoteExec) close() { r.c.Close() } //nolint:errcheck

// splitStatements cuts a script at top-level semicolons, respecting
// single-quoted strings (” escapes a quote, as in the SQL lexer).
func splitStatements(sql string) []string {
	var out []string
	var b strings.Builder
	inStr := false
	for i := 0; i < len(sql); i++ {
		c := sql[i]
		switch {
		case c == '\'':
			inStr = !inStr
			b.WriteByte(c)
		case c == ';' && !inStr:
			if s := strings.TrimSpace(b.String()); s != "" {
				out = append(out, s)
			}
			b.Reset()
		default:
			b.WriteByte(c)
		}
	}
	if s := strings.TrimSpace(b.String()); s != "" {
		out = append(out, s)
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "probql:", err)
	os.Exit(1)
}
