package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// deploy is one running deployment: a probserve, or a probrouter over shards,
// each with its own data dir under root.
type deploy struct {
	w      *workload
	root   string
	nodes  []*node
	router *routerNode
}

func (d *deploy) addr() string {
	if d.router != nil {
		return d.router.addr()
	}
	return d.nodes[0].addr()
}

// open boots the servers over root's data dirs (fresh or left by a stop).
func (d *deploy) open() error {
	n := d.w.shards
	if n == 0 {
		n = 1
	}
	d.nodes = nil
	var addrs []string
	for i := 0; i < n; i++ {
		nd, err := startNode(filepath.Join(d.root, fmt.Sprintf("node%d", i)), d.w.parallelism)
		if err != nil {
			return err
		}
		d.nodes = append(d.nodes, nd)
		addrs = append(addrs, nd.addr())
	}
	if d.w.shards > 0 {
		rdir := filepath.Join(d.root, "router")
		if err := os.MkdirAll(rdir, 0o755); err != nil {
			return err
		}
		r, err := startRouter(rdir, addrs)
		if err != nil {
			return err
		}
		d.router = r
	}
	return nil
}

// stop ends every process of the deployment; crash drops the engines' file
// handles first, so nothing is flushed or checkpointed on the way down.
func (d *deploy) stop(crash bool) error {
	var first error
	if d.router != nil {
		first = d.router.stop()
		d.router = nil
	}
	for _, n := range d.nodes {
		var err error
		if crash {
			err = n.crash()
		} else {
			err = n.stop()
		}
		if first == nil {
			first = err
		}
	}
	d.nodes = nil
	return first
}

// dirBytes is the size of everything the deployment keeps on disk.
func (d *deploy) dirBytes() (int64, error) {
	var n int64
	err := filepath.Walk(d.root, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n, err
}

// obs is one executed statement as the client saw it.
type obs struct {
	class   int
	lat     time.Duration
	first   time.Duration // send → first non-empty RowBatch; -1 when no row came
	rows    int           // result rows delivered
	dml     int           // rows a write acknowledged
	failed  bool
	stats   wireStats
	unitLat time.Duration // > 0 on the statement that closes a unit
	inUnit  bool          // part of a multi-statement unit
}

// roundObs is one completed round of one client.
type roundObs struct {
	dur    time.Duration
	stmts  int
	traced bool
}

// session is one closed-loop client connection with its verifier scratch.
type session struct {
	id      int
	cl      *client
	obs     []obs
	rounds  []roundObs
	errs    []string // first few oracle mismatches, for the report
	ids     []int64  // verifier scratch
	spans   *spanLog // nil unless this statement is traced
	stmtSeq int
	bytes   int64 // INSERT text sent
}

// harness marks a failure of the benchmark itself (transport, boot), as
// opposed to a failed operation of the system under test: the run ends
// without a result.
func harness(format string, args ...any) error {
	return fmt.Errorf("harness: "+format, args...)
}

// exec sends one statement, drains its result while checking it against the
// oracle, and records what the client observed.
func (s *session) exec(st *stmt) (obs, error) {
	o := obs{class: st.class, first: -1}
	s.stmtSeq++
	v := verifier{st: st, ids: s.ids[:0]}
	t0 := time.Now()
	stream, err := s.cl.QueryStream(st.sql)
	if err != nil {
		return s.failed(o, st, t0, err)
	}
	for {
		batch, err := stream.NextBatch()
		if err != nil {
			return s.failed(o, st, t0, err)
		}
		if batch == nil {
			break
		}
		if o.first < 0 {
			o.first = time.Since(t0)
		}
		o.rows += len(batch)
		v.observe(batch)
	}
	res, err := stream.Result()
	if err != nil {
		return s.failed(o, st, t0, err)
	}
	o.lat = time.Since(t0)
	o.stats = res.Stats
	s.ids = v.ids
	if msg := v.verdict(res.Affected, res.Message); msg != "" {
		o.failed = true
		s.note(st, msg)
	} else {
		o.dml = st.dmlRows
		s.bytes += int64(st.insertBytes)
	}
	if s.spans != nil {
		id := s.spans.add("client.roundtrip", -1, s.stmtSeq, st.class, t0, o.lat)
		if o.first >= 0 {
			s.spans.add("client.first_batch", id, s.stmtSeq, st.class, t0, o.first)
		}
	}
	return o, nil
}

// failed classifies an error: a typed server error is a failed operation of
// the system (refusal, overload, statement error); anything else means the
// connection is gone and the run cannot continue.
func (s *session) failed(o obs, st *stmt, t0 time.Time, err error) (obs, error) {
	var se interface{ Retryable() bool }
	if errors.As(err, &se) {
		o.lat = time.Since(t0)
		o.failed = true
		s.note(st, err.Error())
		return o, nil
	}
	return o, harness("client %d: %q: %v", s.id, clip(st.sql), err)
}

func (s *session) note(st *stmt, msg string) {
	if len(s.errs) < 5 {
		s.errs = append(s.errs, fmt.Sprintf("%s: %s", clip(st.sql), msg))
	}
}

func clip(sql string) string {
	if len(sql) > 100 {
		return sql[:100] + "..."
	}
	return sql
}

// runRound executes one round and returns its timing.
func (s *session) runRound(list []*stmt, traced *spanLog) (roundObs, error) {
	s.spans = traced
	var unitStart time.Time
	r := roundObs{stmts: len(list), traced: traced != nil}
	t0 := time.Now()
	inUnit := false
	for _, st := range list {
		if st.unitBegin {
			unitStart, inUnit = time.Now(), true
		}
		o, err := s.exec(st)
		if err != nil {
			return r, err
		}
		o.inUnit = inUnit
		if st.unitEnd {
			o.unitLat, inUnit = time.Since(unitStart), false
		}
		s.obs = append(s.obs, o)
	}
	r.dur = time.Since(t0)
	s.spans = nil
	return r, nil
}

// verifier folds a streamed result into what the statement's expectation needs.
type verifier struct {
	st   *stmt
	n    int
	hash uint64
	ids  []int64
	bad  bool
}

func (v *verifier) observe(batch []wireRow) {
	e := &v.st.exp
	switch e.kind {
	case expectCount:
		v.n += len(batch)
	case expectIDSet:
		for _, r := range batch {
			id, ok := rowID(r)
			if !ok {
				v.bad = true
			}
			v.hash += mix(id)
		}
		v.n += len(batch)
	case expectOrdered, expectTopMass, expectBand:
		for _, r := range batch {
			id, ok := rowID(r)
			if !ok {
				v.bad = true
			}
			v.ids = append(v.ids, id)
		}
	}
}

var meanRE = regexp.MustCompile(`mean=([-+0-9.eE]+|NaN|[-+]?Inf)`)

// aggTol is the relative tolerance on an aggregate's mean: the server prints
// it with six significant digits, so the issue's 1e-6 is below what the
// message can carry.
const aggTol = 1e-5

// verdict compares the folded result with the oracle; "" means correct.
func (v *verifier) verdict(affected uint64, message string) string {
	e := &v.st.exp
	if v.bad {
		return "result row without a leading integer rid"
	}
	switch e.kind {
	case expectAffected:
		if int(affected) != e.n {
			return fmt.Sprintf("affected %d, want %d", affected, e.n)
		}
	case expectCount:
		if v.n != e.n {
			return fmt.Sprintf("%d rows, want %d", v.n, e.n)
		}
	case expectIDSet:
		if v.n != e.n || v.hash != e.hash {
			return fmt.Sprintf("%d rows (hash %x), want %d (hash %x)", v.n, v.hash, e.n, e.hash)
		}
	case expectOrdered:
		if len(v.ids) != len(e.ids) {
			return fmt.Sprintf("%d rows, want %d", len(v.ids), len(e.ids))
		}
		for i := range e.ids {
			if v.ids[i] != e.ids[i] {
				return fmt.Sprintf("position %d is rid %d, want %d", i, v.ids[i], e.ids[i])
			}
		}
	case expectTopMass:
		return checkTopMass(e, v.ids)
	case expectBand:
		seen := make(map[int64]bool, len(v.ids))
		for _, id := range v.ids {
			if !e.may[id] {
				return fmt.Sprintf("rid %d fails a certain predicate", id)
			}
			if seen[id] {
				return fmt.Sprintf("rid %d returned twice", id)
			}
			seen[id] = true
		}
		for id := range e.must {
			if !seen[id] {
				return fmt.Sprintf("rid %d missing", id)
			}
		}
	case expectMean:
		m := meanRE.FindStringSubmatch(message)
		if m == nil {
			return "no mean in " + strconv.Quote(message)
		}
		got, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			return "unreadable mean " + m[1]
		}
		if math.Abs(got-e.mean) > aggTol*math.Max(math.Abs(e.mean), 1) {
			return fmt.Sprintf("mean %g, want %g", got, e.mean)
		}
	}
	return ""
}

// checkTopMass accepts any answer that is a valid top-k by probability: k
// distinct rows, in non-increasing order of the oracle's mass, none below
// the k-th largest mass of the whole table. Rows whose masses differ by
// less than eps may appear in either order.
func checkTopMass(e *expect, ids []int64) string {
	if len(ids) != e.k {
		return fmt.Sprintf("%d rows, want %d", len(ids), e.k)
	}
	prev := math.Inf(1)
	seen := make(map[int64]bool, len(ids))
	for i, id := range ids {
		m, ok := e.massOf(id)
		if !ok || seen[id] {
			return fmt.Sprintf("position %d: rid %d unknown or repeated", i, id)
		}
		seen[id] = true
		if m > prev+eps {
			return fmt.Sprintf("position %d: mass %g after %g", i, m, prev)
		}
		if m < e.kth-eps {
			return fmt.Sprintf("position %d: mass %g below the k-th largest %g", i, m, e.kth)
		}
		prev = m
	}
	return ""
}

// simple runs setup-time SQL, which must succeed.
func simple(cl *client, sqls []string) error {
	for _, q := range sqls {
		if _, err := cl.Query(q); err != nil {
			return harness("%q: %v", clip(q), err)
		}
	}
	return nil
}

// setup builds one deployment under root: boot, load, index, ANALYZE,
// CHECKPOINT and the untimed warm-up pass of every client. It returns the
// open sessions and how long the whole of it took.
func setup(w *workload, p *wplan, root string) (*deploy, []*session, time.Duration, error) {
	quiesce()
	t0 := time.Now()
	d := &deploy{w: w, root: root}
	if err := d.open(); err != nil {
		return nil, nil, 0, harness("%w", err)
	}
	fail := func(err error) (*deploy, []*session, time.Duration, error) {
		d.stop(true) //nolint:errcheck
		return nil, nil, 0, err
	}
	cl, err := dial(d.addr())
	if err != nil {
		return fail(harness("%w", err))
	}
	for _, batch := range [][]string{p.ddl, p.load, p.post} {
		if err := simple(cl, batch); err != nil {
			cl.Close() //nolint:errcheck
			return fail(err)
		}
	}
	cl.Close() //nolint:errcheck
	sess, err := openSessions(d)
	if err != nil {
		return fail(err)
	}
	if err := eachSession(sess, func(s *session) error {
		_, err := s.runRound(p.round(s.id, -1), nil)
		return err
	}); err != nil {
		closeSessions(sess)
		return fail(err)
	}
	return d, sess, speedo.since(t0), nil
}

func openSessions(d *deploy) ([]*session, error) {
	var sess []*session
	for c := 0; c < d.w.clients; c++ {
		cl, err := dial(d.addr())
		if err != nil {
			closeSessions(sess)
			return nil, harness("%w", err)
		}
		sess = append(sess, &session{id: c, cl: cl})
	}
	return sess, nil
}

func closeSessions(sess []*session) {
	for _, s := range sess {
		s.cl.Close() //nolint:errcheck
	}
}

// eachSession runs f on every session concurrently and waits for all.
func eachSession(sess []*session, f func(*session) error) error {
	errs := make([]error, len(sess))
	var wg sync.WaitGroup
	for i, s := range sess {
		wg.Add(1)
		go func(i int, s *session) {
			defer wg.Done()
			errs[i] = f(s)
		}(i, s)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// window is the measured part of a run: every client loops over its rounds
// until the time is up and finishes the round it is in, so the lists run
// whole. With spans set, every second round of a client is recorded.
func window(p *wplan, sess []*session, seconds float64, spans []*spanLog) (time.Duration, error) {
	for _, s := range sess {
		s.obs, s.rounds = s.obs[:0], s.rounds[:0]
	}
	t0 := time.Now()
	deadline := t0.Add(time.Duration(seconds * float64(time.Second)))
	err := eachSession(sess, func(s *session) error {
		for i := 0; time.Now().Before(deadline); i++ {
			list := p.round(s.id, i)
			var log *spanLog
			if spans != nil && i%2 == 1 {
				log = spans[s.id]
			}
			r, err := s.runRound(list, log)
			if err != nil {
				return err
			}
			s.rounds = append(s.rounds, r)
		}
		return nil
	})
	return time.Since(t0), err
}

// recoverOnce stops the deployment, reopens it on the same dirs and times
// from the reopen until the point query answers correctly.
func recoverOnce(d *deploy, p *wplan, crash bool) (time.Duration, bool, error) {
	if err := d.stop(crash); err != nil {
		return 0, false, harness("stop: %v", err)
	}
	quiesce()
	t0 := time.Now()
	if err := d.open(); err != nil {
		return 0, false, harness("%w", err)
	}
	cl, err := dial(d.addr())
	if err != nil {
		return 0, false, harness("%w", err)
	}
	defer cl.Close() //nolint:errcheck
	s := &session{cl: cl}
	o, err := s.exec(p.pointStmt)
	if err != nil {
		return 0, false, err
	}
	return speedo.since(t0), !o.failed, nil
}

// --- statistics -------------------------------------------------------------

func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	f := pos - float64(i)
	return sorted[i]*(1-f) + sorted[i+1]*f
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// peakRSSMB reads the process's high-water resident set from /proc.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	m := regexp.MustCompile(`VmHWM:\s+(\d+) kB`).FindSubmatch(b)
	if m == nil {
		return 0
	}
	kb, _ := strconv.ParseFloat(string(m[1]), 64)
	return kb / 1024
}

// quiesce returns the heap to a comparable state before a timed phase.
func quiesce() {
	runtime.GC()
	runtime.GC()
}
