package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"probdb/internal/core"
	"probdb/internal/txn"
	"probdb/internal/wire"
)

// TestSnapshotIsolationStress: N writer sessions commit row PAIRS in
// transactions while reader sessions stream the table concurrently. Every
// stream must observe one consistent snapshot — for each low key its
// partner (low+partnerGap) inserted by the same transaction, never a torn
// half — even though commits land between the stream's batches. Writers
// retry on first-writer-wins conflicts, so the test also hammers the
// conflict/retry path under -race.
func TestSnapshotIsolationStress(t *testing.T) { snapshotIsolationStress(t, false) }

// TestSnapshotIsolationStressIndexed is the same stress over an indexed
// table: readers alternate a full scan and a btree range probe, both planned
// at build time and streamed while the writers commit.
func TestSnapshotIsolationStressIndexed(t *testing.T) { snapshotIsolationStress(t, true) }

func snapshotIsolationStress(t *testing.T, indexed bool) {
	const (
		writers    = 4
		perWriter  = 20
		readers    = 3
		seedPairs  = 600 // > 2 stream batches, so commits interleave batches
		partnerGap = 1_000_000
		// rangeHi bounds the range reads: every low half, and the high
		// halves of the seed pairs and of writers 0 and 1.
		rangeHi = partnerGap + 12_000
	)
	e, err := OpenEngine(EngineConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	mustExecute(t, e, "CREATE TABLE pairs (k INT)")
	for lo := 0; lo < seedPairs; lo += 100 {
		sql := "INSERT INTO pairs (k) VALUES "
		for i := lo; i < lo+100; i++ {
			if i > lo {
				sql += ", "
			}
			sql += fmt.Sprintf("(%d), (%d)", i, i+partnerGap)
		}
		mustExecute(t, e, sql)
	}
	if indexed {
		mustExecute(t, e, "CREATE INDEX ON pairs (k)")
	}

	var (
		wg        sync.WaitGroup
		stop      atomic.Bool
		retries   atomic.Uint64
		streams   atomic.Uint64
		failures  = make(chan error, writers+readers)
		writersWG sync.WaitGroup
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		writersWG.Add(1)
		go func(w int) {
			defer wg.Done()
			defer writersWG.Done()
			s := e.NewSession()
			defer s.Close()
			for i := 0; i < perWriter; i++ {
				lo := 10_000 + w*1_000 + i
				for {
					var err error
					for _, sql := range []string{
						"BEGIN",
						fmt.Sprintf("INSERT INTO pairs (k) VALUES (%d)", lo),
						fmt.Sprintf("INSERT INTO pairs (k) VALUES (%d)", lo+partnerGap),
						"COMMIT",
					} {
						if _, err = s.Execute(sql); err != nil {
							break
						}
					}
					if err == nil {
						break
					}
					var ce *txn.ConflictError
					if !errors.As(err, &ce) {
						failures <- fmt.Errorf("writer %d: %w", w, err)
						return
					}
					retries.Add(1) // lost first-writer-wins; try again
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			s := e.NewSession()
			defer s.Close()
			for n := 0; !stop.Load(); n++ {
				query, hi := "SELECT k FROM pairs", int64(math.MaxInt64)
				if indexed && n%2 == 1 {
					query, hi = fmt.Sprintf("SELECT k FROM pairs WHERE k < %d", rangeHi), rangeHi
				}
				seen := map[int64]bool{}
				sink := func(hdr *core.Table, batch []*core.Tuple) error {
					for _, tup := range batch {
						if v, ok := hdr.Value(tup, "k"); ok {
							seen[v.I] = true
						}
					}
					return nil
				}
				res, _, err := s.ExecuteStream(context.Background(), query, sink)
				if err != nil {
					failures <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				if probed := res.Stats.IndexProbes == 1; probed != (hi < math.MaxInt64) {
					failures <- fmt.Errorf("reader %d: %q made %d index probes", r, query, res.Stats.IndexProbes)
					return
				}
				for k := range seen {
					if k < partnerGap && k+partnerGap < hi && !seen[k+partnerGap] {
						failures <- fmt.Errorf("reader %d: torn snapshot: saw %d without its partner", r, k)
						return
					}
					if k >= partnerGap && !seen[k-partnerGap] {
						failures <- fmt.Errorf("reader %d: torn snapshot: saw %d without its low half", r, k)
						return
					}
				}
				streams.Add(1)
			}
		}(r)
	}
	writersWG.Wait()
	stop.Store(true)
	wg.Wait()
	close(failures)
	for err := range failures {
		t.Fatal(err)
	}
	t.Logf("writers committed %d pair txns (%d conflict retries); readers completed %d consistent streams",
		writers*perWriter, retries.Load(), streams.Load())

	res, err := e.Execute("SELECT k FROM pairs")
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * (seedPairs + writers*perWriter)
	if got := len(res.Table.Rows); got != want {
		t.Fatalf("final row count %d, want %d", got, want)
	}
	gst := e.gc.Stats()
	if gst.Records == 0 {
		t.Fatal("group committer saw no records")
	}
	t.Logf("group commit: %d fsyncs for %d records (max group %d)", gst.Fsyncs, gst.Records, gst.MaxGroup)
}

// TestRollbackMidStreamNoLeak: aborting an in-transaction stream from the
// sink and rolling the transaction back must tear down the whole operator
// tree — repeated cycles leave no goroutines behind.
func TestRollbackMidStreamNoLeak(t *testing.T) {
	e, err := OpenEngine(EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	mustExecute(t, e, "CREATE TABLE big (k INT)")
	for lo := 0; lo < 2000; lo += 500 {
		sql := "INSERT INTO big (k) VALUES "
		for i := lo; i < lo+500; i++ {
			if i > lo {
				sql += ", "
			}
			sql += fmt.Sprintf("(%d)", i)
		}
		mustExecute(t, e, sql)
	}

	before := runtime.NumGoroutine()
	errSink := errors.New("sink gave up")
	for i := 0; i < 30; i++ {
		s := e.NewSession()
		for _, sql := range []string{"BEGIN", "INSERT INTO big (k) VALUES (99999)"} {
			if _, err := s.Execute(sql); err != nil {
				t.Fatal(err)
			}
		}
		calls := 0
		sink := func(hdr *core.Table, batch []*core.Tuple) error {
			calls++
			if calls >= 2 {
				return errSink // abandon the stream mid-flight
			}
			return nil
		}
		if _, _, err := s.ExecuteStream(context.Background(), "SELECT k FROM big", sink); !errors.Is(err, errSink) {
			t.Fatalf("cycle %d: stream error %v, want the sink's", i, err)
		}
		if _, err := s.Execute("ROLLBACK"); err != nil {
			t.Fatalf("cycle %d: rollback: %v", i, err)
		}
		s.Close()
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d -> %d\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestWorkerPoolRejection: saturating the read class gets a typed
// overload rejection with a retry hint — and costs nothing else. The
// rejected session keeps its connection, HEALTH still answers, writes
// (a different class) are still admitted, the slot frees once the hog
// finishes, and no goroutines leak.
func TestWorkerPoolRejection(t *testing.T) {
	before := runtime.NumGoroutine()
	s := startServer(t, Config{Workers: 1, AdmitReads: 1, QueryTimeout: 30 * time.Second})
	addr := s.Addr().String()

	hog, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer hog.Close()
	if _, err := hog.Query("CREATE TABLE r (k INT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 48; i++ {
		if _, err := hog.Query(fmt.Sprintf("INSERT INTO r (k) VALUES (%d)", i)); err != nil {
			t.Fatal(err)
		}
	}
	hogDone := make(chan error, 1)
	go func() {
		// One long read occupies the single read slot for a while.
		_, err := hog.Query("SELECT COUNT(*) FROM r a, r b, r c WHERE a.k < b.k AND b.k < c.k")
		hogDone <- err
	}()

	// Wait until the hog's read is actually in flight.
	waitUntil := time.Now().Add(5 * time.Second)
	for s.adm.Depths()[0] == 0 {
		if time.Now().After(waitUntil) {
			t.Fatal("hog query never acquired the read slot")
		}
		time.Sleep(time.Millisecond)
	}

	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Query("SELECT k FROM r")
	var se *wire.ServerError
	if err == nil {
		t.Fatal("second read admitted past AdmitReads=1")
	}
	if !errors.As(err, &se) {
		t.Fatalf("rejection is not a typed ServerError: %v", err)
	}
	if se.Code != wire.ErrOverloaded {
		t.Fatalf("rejection code %v, want ErrOverloaded (msg %q)", se.Code, se.Msg)
	}
	if se.RetryAfter <= 0 {
		t.Fatal("rejection carries no RetryAfter hint")
	}
	if !se.Retryable() {
		t.Fatal("admission rejection must be retryable")
	}

	// The rejected session survived: HEALTH (bypassing admission) and a
	// write (a different class) both work while the read slot stays full.
	if _, err := c.Query("HEALTH"); err != nil {
		t.Fatalf("HEALTH on the rejected session: %v", err)
	}
	if _, err := c.Query("INSERT INTO r (k) VALUES (999)"); err != nil {
		t.Fatalf("write refused while only the read class is saturated: %v", err)
	}

	if err := <-hogDone; err != nil {
		t.Fatalf("hog query: %v", err)
	}
	// Slot released: the same session's read now succeeds (retry covers
	// the release racing this query).
	if _, err := c.QueryRetry("SELECT k FROM r", 10); err != nil {
		t.Fatalf("read after slot release: %v", err)
	}

	hog.Close()
	c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d -> %d\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
