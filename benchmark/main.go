// Command benchmark is probdb's end-to-end benchmark. It boots real
// probserve / probrouter instances in-process on loopback sockets over
// on-disk data dirs, drives them with seeded closed-loop clients, checks
// every answer against a closed-form oracle, and prints every metric named
// in BENCHMARK.json. See README.md beside this file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	smoke    bool
	aa       int
	scratch  string
}

// metric is one named number with its unit, as the contract prints it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// A run sets up setupRepeats times and recovers recoverRepeats times and
// reports the medians. A deployment that recovers in tens of milliseconds
// (the cluster) is recovered more often, until the recoveries add up to
// minRecoverSeconds: a median of five 70 ms phases does not repeat.
const (
	setupRepeats      = 3
	recoverRepeats    = 5
	maxRecoverRepeats = 15
	minRecoverSeconds = 1.0
)

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "all", "point_read, scan_analytic, ingest_txn, cluster_mix or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the data and the statement lists")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "with -trace 1: write the recorded spans to this JSON file")
	flag.BoolVar(&cfg.smoke, "smoke", false, "1/20 of the data and a fifth of each round, for tests")
	flag.IntVar(&cfg.aa, "aa", 0, "A/A mode: run N full sets on this binary and report spreads and bounds")
	flag.StringVar(&cfg.scratch, "scratch", ".bench_build", "directory for data dirs (created, emptied of this run's files at exit)")
	flag.Parse()
	cfg.trace = trace != 0
	if flag.NArg() > 0 || trace < 0 || trace > 1 || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments")
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	if cfg.aa > 0 {
		return runAA(cfg)
	}
	var ws []*workload
	if cfg.workload == "all" {
		ws = workloads
	} else if w := workloadByName(cfg.workload); w != nil {
		ws = []*workload{w}
	} else {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	printStamp(cfg)
	for _, w := range ws {
		res, notes, err := runWorkload(cfg, w)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		printHuman(w, res, notes)
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	return nil
}

// printStamp records the environment every number depends on.
func printStamp(cfg config) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("# probdb benchmark: seed=%d seconds=%g trace=%v smoke=%v\n", cfg.seed, cfg.seconds, cfg.trace, cfg.smoke)
	fmt.Printf("# host: nproc=%d GOMAXPROCS=%d %s %s/%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit)
	fmt.Printf("# server: shipped defaults (Workers 4, Parallelism 0 = one per CPU, CheckpointBytes 1 MiB, fsync on, no memory budget); cluster shards run Parallelism 1\n")
	fmt.Printf("# disk: every fsync is performed and padded to %v, so the host's I/O load does not set the numbers\n", flushFloor)
	fmt.Printf("# load: closed loop, scale factor %g of the issue's row counts\n", scaleFactor)
	for _, w := range workloads {
		fmt.Printf("#   %s: %+v\n", w.name, sizesFor(w, cfg.smoke))
	}
	fmt.Printf("# note: the OS page cache survives Engine.Abort, so latencies, recover_s and the durability check are the sandbox's, not a device's\n")
}

func printHuman(w *workload, res *result, notes []string) {
	fmt.Printf("## %s: correct=%v attempted=%d failed=%d\n", w.name, res.Correct, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-44s %16.6g %s\n", n, m.Value, m.Unit)
	}
	for _, n := range notes {
		fmt.Println("# " + n)
	}
}

// runWorkload performs one run of one workload and tears everything down.
func runWorkload(cfg config, w *workload) (*result, []string, error) {
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return nil, nil, err
	}
	root, err := os.MkdirTemp(cfg.scratch, "run-"+w.name+"-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(root) //nolint:errcheck
	speedo = startSpeedometer()
	defer speedo.stop()
	if cfg.trace {
		return runTraced(cfg, w, root)
	}
	return runEndToEnd(cfg, w, root)
}

// speedo scales the gated times of the current run to reference speed; see
// speed.go.
var speedo *speedometer

// tally counts operations and failures outside the window.
type tally struct {
	attempted, failed int
	notes             []string
}

func (t *tally) add(o obs, s *session) {
	t.attempted++
	if o.failed {
		t.failed++
		t.notes = append(t.notes, s.errs...)
		s.errs = nil
	}
}

// execAll runs statements on a fresh connection, counting each as an operation.
func (t *tally) execAll(d *deploy, list []*stmt) (int64, error) {
	cl, err := dial(d.addr())
	if err != nil {
		return 0, harness("%w", err)
	}
	defer cl.Close() //nolint:errcheck
	s := &session{cl: cl}
	for _, st := range list {
		o, err := s.exec(st)
		if err != nil {
			return s.bytes, err
		}
		t.add(o, s)
	}
	return s.bytes, nil
}

func sumBytes(sqls []string) int64 {
	var n int64
	for _, s := range sqls {
		n += int64(len(s))
	}
	return n
}

func runEndToEnd(cfg config, w *workload, root string) (*result, []string, error) {
	sz := sizesFor(w, cfg.smoke)
	var (
		d      *deploy
		p      *wplan
		sess   []*session
		setups []float64
	)
	for k := 0; k < setupRepeats; k++ {
		if d != nil {
			closeSessions(sess)
			if err := d.stop(false); err != nil {
				return nil, nil, harness("stop after set-up: %v", err)
			}
			os.RemoveAll(d.root) //nolint:errcheck
		}
		// A plan carries the clients' state, so every set-up gets its own.
		p = w.plan(sz, cfg.seed)
		var dur time.Duration
		var err error
		d, sess, dur, err = setup(w, p, filepath.Join(root, fmt.Sprintf("setup%d", k)))
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, dur.Seconds())
	}
	stopped := false
	defer func() {
		closeSessions(sess)
		if !stopped {
			d.stop(true) //nolint:errcheck
		}
	}()

	// The warm-up pass is untimed but checked like everything else.
	var t tally
	for _, s := range sess {
		for _, o := range s.obs {
			t.add(o, s)
		}
	}

	quiesce()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	winStart := time.Now()
	wall, err := window(p, sess, cfg.seconds, nil)
	if err != nil {
		return nil, nil, err
	}
	runtime.ReadMemStats(&m1)
	winEnd := time.Now()
	hostSpeed := speedo.speed(winStart, winEnd)
	// f scales the window's times to reference speed. A window that mostly
	// waits for the flush floor takes what the floor takes at any host speed,
	// so it stays on the clock.
	f := speedo.scale(winStart, winEnd)
	if w.flushBound {
		f = 1
	}

	var all []obs
	for _, s := range sess {
		for _, o := range s.obs {
			t.add(o, s)
		}
		all = append(all, s.obs...)
	}
	userBytes := sumBytes(p.load)
	for _, s := range sess {
		userBytes += s.bytes
	}

	// An uncommitted transaction is left open on every connection, then the
	// deployment stops — by Engine.Abort where the workload says crash.
	if p.beforeCrash != nil {
		if err := eachSession(sess, func(s *session) error {
			for _, st := range p.beforeCrash(s.id) {
				o, err := s.exec(st)
				if err != nil {
					return err
				}
				if o.failed {
					return harness("open transaction before the crash: %v", s.errs)
				}
			}
			return nil
		}); err != nil {
			return nil, nil, err
		}
	}
	// recovery stops and reopens the deployment and counts the point query.
	recovery := func() (float64, error) {
		dur, ok, err := recoverOnce(d, p, w.crash)
		t.attempted++
		if err == nil && !ok {
			t.failed++
			t.notes = append(t.notes, "point query wrong after recovery")
		}
		return dur.Seconds(), err
	}
	first, err := recovery()
	if err != nil {
		return nil, nil, err
	}
	notes := []string{fmt.Sprintf("first recovery after the window: %.3f s", first)}
	var recovers []float64
	if !w.crash {
		recovers = append(recovers, first)
	}
	if p.afterRecover != nil {
		if _, err := t.execAll(d, p.afterRecover()); err != nil {
			return nil, nil, err
		}
	}
	// Timed recoveries. After a crash the WAL tail left by the window has a
	// random length, so each timed crash recovery replays a fixed tail
	// written behind a CHECKPOINT instead.
	var spent float64
	for k := 0; len(recovers) < recoverRepeats || (spent < minRecoverSeconds && len(recovers) < maxRecoverRepeats); k++ {
		if p.tail != nil {
			list := append([]*stmt{plainStmt(0, "CHECKPOINT")}, p.tail(k)...)
			n, err := t.execAll(d, list)
			if err != nil {
				return nil, nil, err
			}
			userBytes += n
		}
		dur, err := recovery()
		if err != nil {
			return nil, nil, err
		}
		recovers = append(recovers, dur)
		spent += dur
	}
	if _, err := t.execAll(d, []*stmt{plainStmt(0, "CHECKPOINT")}); err != nil {
		return nil, nil, err
	}
	stored, err := d.dirBytes()
	if err != nil {
		return nil, nil, harness("size of data dirs: %v", err)
	}
	if err := d.stop(false); err != nil {
		return nil, nil, harness("final stop: %v", err)
	}
	stopped = true

	// Latency is per operation: a transaction (BEGIN ... COMMIT) is one
	// operation, timed as a whole, so that the median does not sit between
	// the cheap statements inside a transaction and everything else.
	var lats []float64
	rows := 0
	for _, o := range all {
		rows += o.rows + o.dml
		if o.failed {
			continue
		}
		switch {
		case o.unitLat > 0:
			lats = append(lats, ms(o.unitLat))
		case !o.inUnit:
			lats = append(lats, ms(o.lat))
		}
	}
	sort.Float64s(lats)
	res := &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{
		"setup_s":                    {median(setups), "s"},
		"stmt_per_s":                 {float64(len(all)) / (f * wall.Seconds()), "1/s"},
		"lat_p50_ms":                 {f * quantile(lats, 0.5), "ms"},
		"lat_tail_ms":                {f * quantile(lats, tailPct/100), "ms"},
		"rows_per_s":                 {float64(rows) / (f * wall.Seconds()), "1/s"},
		"alloc_kb_per_stmt":          {float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(len(all)), "KiB"},
		"stored_bytes_per_user_byte": {float64(stored) / float64(userBytes), "ratio"},
		"recover_s":                  {median(recovers), "s"},
	}}
	for name, m := range res.Metrics {
		if !(m.Value > 0) || math.IsInf(m.Value, 0) {
			return nil, nil, harness("%s = %v: an end-to-end metric must be a positive number", name, m.Value)
		}
	}
	notes = append(notes,
		fmt.Sprintf("window %.2f s on the clock, host speed %.3f of the reference; the window's times are multiplied by %.3f, each set-up and recovery by the speed during it to the power %g",
			wall.Seconds(), hostSpeed, f, speedExponent),
		fmt.Sprintf("%d statements (%d operations) over %d connection(s); lat_tail_ms is p%g of %d operations",
			len(all), len(lats), sz.clients, tailPct, len(lats)),
		fmt.Sprintf("set-ups %.3v s; recoveries %.3v s; stored %d bytes for %d bytes of INSERT text; %d GC cycles in the window",
			setups, recovers, stored, userBytes, m1.NumGC-m0.NumGC))
	return res, append(notes, t.notes...), nil
}

// allClasses lists every class of every workload, in BENCHMARK.json order.
func allClasses() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.classes...)
	}
	return out
}

func runTraced(cfg config, w *workload, root string) (*result, []string, error) {
	sz := sizesFor(w, cfg.smoke)
	p := w.plan(sz, cfg.seed)
	d, sess, _, err := setup(w, p, filepath.Join(root, "traced"))
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		closeSessions(sess)
		d.stop(true) //nolint:errcheck
	}()
	epoch := time.Now()
	clients := sz.clients
	logs := make([]*spanLog, clients+1)
	for i := range logs {
		logs[i] = newSpanLog(w, i, epoch)
	}

	// Phase 1: the closed loop, spans recorded on every second round.
	quiesce()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var h0, mi0 uint64
	for _, n := range d.nodes {
		h, m := n.colCacheCounters()
		h0, mi0 = h0+h, mi0+m
	}
	winStart := time.Now()
	wall, err := window(p, sess, cfg.seconds*0.5, logs[:clients])
	if err != nil {
		return nil, nil, err
	}
	runtime.ReadMemStats(&m1)
	hostSpeed := speedo.speed(winStart, time.Now())
	var h1, mi1 uint64
	for _, n := range d.nodes {
		h, m := n.colCacheCounters()
		h1, mi1 = h1+h, mi1+m
	}
	var all []obs
	var tracedRate, plainRate []float64
	for _, s := range sess {
		all = append(all, s.obs...)
		for _, r := range s.rounds {
			rate := float64(r.stmts) / r.dur.Seconds()
			if r.traced {
				tracedRate = append(tracedRate, rate)
			} else {
				plainRate = append(plainRate, rate)
			}
		}
	}

	// Phase 2: the rounds again on one connection, then on two. Three of the
	// workloads are gated on one connection, so this is where admission, the
	// engine lock and the router's locks meet a concurrent statement; every
	// answer is checked here too.
	pair := sess
	if len(pair) < 2 {
		cl, err := dial(d.addr())
		if err != nil {
			return nil, nil, harness("%w", err)
		}
		defer cl.Close() //nolint:errcheck
		pair = append(pair[:1:1], &session{id: 1, cl: cl})
	}
	var connRate [2]float64
	var paired []obs
	for n := 1; n <= 2; n++ {
		took, err := window(p, pair[:n], cfg.seconds*0.1, nil)
		if err != nil {
			return nil, nil, err
		}
		before := len(paired)
		for _, s := range pair[:n] {
			paired = append(paired, s.obs...)
		}
		connRate[n-1] = float64(len(paired)-before) / took.Seconds()
	}

	// Phase 3: the same statements through successively lower entry points.
	lay, err := replayLayers(d, p, logs[clients], time.Duration(cfg.seconds*0.15*float64(time.Second)))
	if err != nil {
		return nil, nil, err
	}
	// Phase 4: one exported function per layer.
	lv, err := probeLeaves(d, p, sz, time.Duration(cfg.seconds*0.15*float64(time.Second)))
	if err != nil {
		return nil, nil, err
	}
	stored, err := d.dirBytes()
	if err != nil {
		return nil, nil, harness("size of data dirs: %v", err)
	}
	if cfg.traceOut != "" {
		if err := writeSpans(cfg.traceOut, logs); err != nil {
			return nil, nil, harness("write spans: %v", err)
		}
	}

	var notes []string
	for _, s := range pair {
		notes = append(notes, s.errs...)
	}
	mt := layerMetrics(w, all)
	set := func(name string, v float64, unit string) { mt[name] = metric{v, unit} }
	if hm := float64(h1 - h0 + mi1 - mi0); hm > 0 {
		set("colpdf.cache_hit_ratio", float64(h1-h0)/hm, "ratio")
	}
	set("server.conn2_stmt_per_s", connRate[1], "1/s")
	set("server.conn2_speedup", connRate[1]/connRate[0], "ratio")
	set("host.speed", hostSpeed, "ratio")
	set("wire.encode_batch_ns_per_row", lv.wireEncodeNsPerRow, "ns")
	set("wire.decode_batch_ns_per_row", lv.wireDecodeNsPerRow, "ns")
	set("wire.bytes_per_row", lv.wireBytesPerRow, "B")
	set("wire.server_self_p50_us", lay.wireServerUs, "us")
	set("server.engine_self_p50_us", lay.engineSelfUs, "us")
	set("query.parse_p50_us", lay.parseUs, "us")
	set("query.parse_ns_per_byte", lay.parseNsPerByte, "ns")
	set("query.exec_self_p50_us", lay.execSelfUs, "us")
	set("plan.btree_probe_us", lv.btreeProbeUs, "us")
	set("index.pti_probe_us", lv.ptiProbeUs, "us")
	set("index.pti_pruned_ratio", lv.ptiPrunedRatio, "ratio")
	set("colpdf.encode_ns_per_tuple", lv.colpdfEncodeNsPerTuple, "ns")
	set("colpdf.mass_interval_ns_per_tuple", lv.colpdfMassNsPerTuple, "ns")
	set("pipe.scan_ns_per_tuple", lv.pipeScanNsPerTuple, "ns")
	set("dist.encode_ns_per_pdf", lv.distEncodeNs, "ns")
	set("dist.decode_ns_per_pdf", lv.distDecodeNs, "ns")
	set("dist.bytes_per_pdf", lv.distBytes, "B")
	set("wal.append_sync_p50_us", lv.walAppendSyncUs, "us")
	set("storage.dir_bytes", float64(stored), "B")
	set("cluster.router_overhead_p50_us", lay.routerUs, "us")
	set("cluster.split_insert_us_per_row", lv.splitInsertUsPerRow, "us")
	set("proc.peak_rss_mb", peakRSSMB(), "MiB")
	set("proc.gc_cycles", float64(m1.NumGC-m0.NumGC), "count")
	set("proc.gc_pause_total_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, "ms")
	if len(tracedRate) > 0 && len(plainRate) > 0 {
		set("trace.overhead_ratio", median(tracedRate)/median(plainRate), "ratio")
	}
	set("trace.self_sum_ratio", lay.selfSumRatio, "ratio")

	all = append(all, paired...)
	failed := 0
	for _, o := range all {
		if o.failed {
			failed++
		}
	}
	set("fail_ratio", float64(failed)/float64(len(all)), "ratio")
	spans := 0
	for _, l := range logs {
		spans += len(l.spans)
	}
	notes = append(notes, fmt.Sprintf("traced window %.2f s, %d statements, %d spans; replay round trip p50 %.1f us",
		wall.Seconds(), len(all)-len(paired), spans, lay.roundtripUs),
		fmt.Sprintf("one connection %.1f statements/s, two connections %.1f", connRate[0], connRate[1]))
	return &result{Correct: failed == 0, Attempted: len(all), Failed: failed, Metrics: mt}, notes, nil
}

// layerMetrics derives the per-layer numbers that come from the clients'
// own timing and from the wire.Stats trailing every result. Every name of
// BENCHMARK.json's per_layer list is present; one that does not apply to
// this workload (another workload's class, the router on one node) is 0.
func layerMetrics(w *workload, all []obs) map[string]metric {
	mt := map[string]metric{}
	for _, name := range perLayerNames() {
		mt[name.name] = metric{0, name.unit}
	}
	set := func(name string, v float64, unit string) { mt[name] = metric{v, unit} }

	classLat := make([][]float64, len(w.classes))
	classBusy := make([]time.Duration, len(w.classes))
	var busy time.Duration
	var overhead, execUs, queueUs, commitMs, firstMs []float64
	var sum wireStats
	var selects, writers, commits, delivered, dml int
	var loadRows int
	var loadBusy time.Duration
	for _, o := range all {
		busy += o.lat
		classBusy[o.class] += o.lat
		switch {
		case !o.inUnit:
			classLat[o.class] = append(classLat[o.class], ms(o.lat))
		case o.unitLat > 0:
			classLat[o.class] = append(classLat[o.class], ms(o.unitLat))
			commitMs = append(commitMs, ms(o.lat))
		}
		if o.failed {
			continue
		}
		st := o.stats
		exec, queue := float64(st.LatencyMicros), float64(st.QueueWaitMicros)
		overhead = append(overhead, us(o.lat)-exec-queue)
		execUs = append(execUs, exec)
		queueUs = append(queueUs, queue)
		if o.first >= 0 {
			firstMs = append(firstMs, ms(o.first))
		}
		if o.first >= 0 || st.Rows > 0 {
			selects++
			delivered += o.rows
			sum.Rows += st.Rows
		}
		if st.WALBytes > 0 {
			writers++
		}
		if st.WALGroupSize > 0 {
			commits++
		}
		dml += o.dml
		if w.classes[o.class] == "load_batch" {
			loadRows += o.dml
			loadBusy += o.lat
		}
		sum.PageReads += st.PageReads
		sum.PageWrites += st.PageWrites
		sum.WALBytes += st.WALBytes
		sum.WALFsyncs += st.WALFsyncs
		sum.WALGroupSize += st.WALGroupSize
		sum.MassCacheHits += st.MassCacheHits
		sum.MassCacheMiss += st.MassCacheMiss
		sum.IndexProbes += st.IndexProbes
		sum.PlannerFallbacks += st.PlannerFallbacks
		sum.TxnConflicts += st.TxnConflicts
		sum.VecTuples += st.VecTuples
		sum.ScalarTuples += st.ScalarTuples
		if st.Rejections > sum.Rejections {
			sum.Rejections = st.Rejections
		}
	}
	for c, name := range w.classes {
		set("class."+name+".p50_ms", median(classLat[c]), "ms")
		if busy > 0 {
			set("class."+name+".time_share", float64(classBusy[c])/float64(busy), "ratio")
		}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	set("client.first_row_p50_ms", median(firstMs), "ms")
	set("wire.overhead_p50_us", median(overhead), "us")
	set("server.exec_p50_us", median(execUs), "us")
	set("server.queue_wait_p50_us", median(queueUs), "us")
	set("server.rejections", float64(sum.Rejections), "count")
	set("plan.rows_examined_per_row_returned", ratio(float64(sum.VecTuples+sum.ScalarTuples), float64(sum.Rows)), "ratio")
	set("plan.index_probes_per_stmt", ratio(float64(sum.IndexProbes), float64(selects)), "ratio")
	set("plan.fallbacks", float64(sum.PlannerFallbacks), "count")
	set("colpdf.vec_ratio", ratio(float64(sum.VecTuples), float64(sum.VecTuples+sum.ScalarTuples)), "ratio")
	set("exec.mass_cache_hit_ratio", ratio(float64(sum.MassCacheHits), float64(sum.MassCacheHits+sum.MassCacheMiss)), "ratio")
	set("wal.bytes_per_stmt", ratio(float64(sum.WALBytes), float64(writers)), "B")
	set("wal.fsyncs_per_commit", ratio(float64(sum.WALFsyncs), float64(commits)), "ratio")
	set("wal.group_size_mean", ratio(float64(sum.WALGroupSize), float64(commits)), "count")
	set("txn.commit_p50_ms", median(commitMs), "ms")
	set("txn.conflict_retries", float64(sum.TxnConflicts), "count")
	set("storage.page_writes_per_row", ratio(float64(sum.PageWrites), float64(dml)), "ratio")
	set("storage.page_reads_per_stmt", ratio(float64(sum.PageReads), float64(len(all))), "ratio")
	set("cluster.load_rows_per_s", ratio(float64(loadRows), loadBusy.Seconds()), "1/s")
	set("cluster.rows_shipped_per_row_delivered", ratio(float64(sum.Rows), float64(delivered)), "ratio")
	return mt
}

// layerName is one per-layer metric of BENCHMARK.json.
type layerName struct{ name, unit, better string }

// perLayerNames is the per_layer list of BENCHMARK.json, in its order; the
// smoke test holds the two together.
func perLayerNames() []layerName {
	var out []layerName
	for _, c := range allClasses() {
		out = append(out, layerName{"class." + c + ".p50_ms", "ms", "lower"}, layerName{"class." + c + ".time_share", "ratio", "lower"})
	}
	return append(out, []layerName{
		{"client.first_row_p50_ms", "ms", "lower"},
		{"wire.overhead_p50_us", "us", "lower"},
		{"wire.server_self_p50_us", "us", "lower"},
		{"wire.encode_batch_ns_per_row", "ns", "lower"},
		{"wire.decode_batch_ns_per_row", "ns", "lower"},
		{"wire.bytes_per_row", "B", "lower"},
		{"server.exec_p50_us", "us", "lower"},
		{"server.queue_wait_p50_us", "us", "lower"},
		{"server.rejections", "count", "lower"},
		{"server.engine_self_p50_us", "us", "lower"},
		{"server.conn2_stmt_per_s", "1/s", "higher"},
		{"server.conn2_speedup", "ratio", "higher"},
		{"query.parse_p50_us", "us", "lower"},
		{"query.parse_ns_per_byte", "ns", "lower"},
		{"query.exec_self_p50_us", "us", "lower"},
		{"plan.rows_examined_per_row_returned", "ratio", "lower"},
		{"plan.index_probes_per_stmt", "ratio", "higher"},
		{"plan.fallbacks", "count", "lower"},
		{"plan.btree_probe_us", "us", "lower"},
		{"index.pti_probe_us", "us", "lower"},
		{"index.pti_pruned_ratio", "ratio", "higher"},
		{"colpdf.encode_ns_per_tuple", "ns", "lower"},
		{"colpdf.mass_interval_ns_per_tuple", "ns", "lower"},
		{"colpdf.vec_ratio", "ratio", "higher"},
		{"colpdf.cache_hit_ratio", "ratio", "higher"},
		{"exec.mass_cache_hit_ratio", "ratio", "higher"},
		{"pipe.scan_ns_per_tuple", "ns", "lower"},
		{"dist.encode_ns_per_pdf", "ns", "lower"},
		{"dist.decode_ns_per_pdf", "ns", "lower"},
		{"dist.bytes_per_pdf", "B", "lower"},
		{"wal.bytes_per_stmt", "B", "lower"},
		{"wal.fsyncs_per_commit", "ratio", "lower"},
		{"wal.group_size_mean", "count", "higher"},
		{"wal.append_sync_p50_us", "us", "lower"},
		{"txn.commit_p50_ms", "ms", "lower"},
		{"txn.conflict_retries", "count", "lower"},
		{"storage.page_writes_per_row", "ratio", "lower"},
		{"storage.page_reads_per_stmt", "ratio", "lower"},
		{"storage.dir_bytes", "B", "lower"},
		{"cluster.router_overhead_p50_us", "us", "lower"},
		{"cluster.split_insert_us_per_row", "us", "lower"},
		{"cluster.load_rows_per_s", "1/s", "higher"},
		{"cluster.rows_shipped_per_row_delivered", "ratio", "lower"},
		{"host.speed", "ratio", "higher"},
		{"proc.peak_rss_mb", "MiB", "lower"},
		{"proc.gc_cycles", "count", "lower"},
		{"proc.gc_pause_total_ms", "ms", "lower"},
		{"trace.overhead_ratio", "ratio", "higher"},
		{"trace.self_sum_ratio", "ratio", "higher"},
		{"fail_ratio", "ratio", "lower"},
	}...)
}
