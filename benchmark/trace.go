package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// side of the call. Tracing inside probdb is ROADMAP item 3 and a later PR.
type span struct {
	ID       int    `json:"id"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Parent   int    `json:"parent"` // -1: root
	Stmt     int    `json:"stmt"`
	Workload string `json:"workload"`
	Class    string `json:"class"`
}

// spanLog keeps spans in memory until the run ends. One log per goroutine
// that records, so the hot path takes an uncontended lock at most.
type spanLog struct {
	mu     sync.Mutex
	w      *workload
	client int
	epoch  time.Time
	spans  []span
}

func newSpanLog(w *workload, client int, epoch time.Time) *spanLog {
	return &spanLog{w: w, client: client, epoch: epoch, spans: make([]span, 0, 1<<14)}
}

// add records one span and returns its id (unique within the run: the client
// number occupies the top digits).
func (l *spanLog) add(name string, parent, stmt, class int, start time.Time, dur time.Duration) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := l.client*10_000_000 + len(l.spans)
	s0 := start.Sub(l.epoch).Nanoseconds()
	l.spans = append(l.spans, span{ID: id, Name: name, StartNs: s0, EndNs: s0 + dur.Nanoseconds(),
		Parent: parent, Stmt: l.client*10_000_000 + stmt, Workload: l.w.name, Class: l.w.classes[class]})
	return id
}

func writeSpans(path string, logs []*spanLog) error {
	var all []span
	for _, l := range logs {
		all = append(all, l.spans...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].StartNs < all[j].StartNs })
	b, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// perCall runs fn repeatedly for about budget (at least min times) and
// returns the median duration of one call.
func perCall(budget time.Duration, min int, fn func() error) (time.Duration, error) {
	var ds []float64
	end := time.Now().Add(budget)
	for i := 0; i < min || time.Now().Before(end); i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(t0)))
	}
	return time.Duration(median(ds)), nil
}

// layered is the outcome of replaying read statements through successively
// lower entry points: a layer's self time is its span minus the span of the
// layer it calls, statement by statement.
type layered struct {
	roundtripUs    float64 // median client round trip
	engineSelfUs   float64 // Engine.ExecuteStream − DB.ExecStream
	execSelfUs     float64 // DB.ExecStream − query.Parse
	parseUs        float64
	wireServerUs   float64 // round trip − Engine.ExecuteStream: socket, framing, session, admission
	selfSumRatio   float64 // sum of the medians of the self times ÷ median round trip
	routerUs       float64 // routed − slowest direct-to-shard (cluster only)
	parseNsPerByte float64
}

// replayLayers runs every replay statement reps times at each level, in
// turn, single-threaded, and records one span per call.
func replayLayers(d *deploy, p *wplan, log *spanLog, budget time.Duration) (layered, error) {
	var out layered
	stmts := p.replay()
	entry, err := dial(d.addr())
	if err != nil {
		return out, harness("%w", err)
	}
	defer entry.Close() //nolint:errcheck
	var direct []*client
	if d.router != nil {
		for _, n := range d.nodes {
			c, err := dial(n.addr())
			if err != nil {
				return out, harness("%w", err)
			}
			defer c.Close() //nolint:errcheck
			direct = append(direct, c)
		}
	}
	drain := func(c *client, sql string) error {
		st, err := c.QueryStream(sql)
		if err != nil {
			return err
		}
		_, err = st.Drain()
		return err
	}
	// On the cluster a statement's home is the shard owning its point rid;
	// scatter statements replay on shard 0 (every shard does the same work
	// on its half).
	home := func(st *stmt) *node {
		if d.router != nil && st.exp.kind == expectIDSet && st.exp.n == 1 {
			return d.nodes[shardOf(st.exp.first, len(d.nodes))]
		}
		return d.nodes[0]
	}
	var rt, engSelf, execSelf, parse, wireSrv, router []float64
	end := time.Now().Add(budget)
	for pass := 0; pass < 2 || time.Now().Before(end); pass++ {
		for i, st := range stmts {
			n := home(st)
			timed := func(name string, parent int, fn func() error) (time.Duration, int, error) {
				t0 := time.Now()
				err := fn()
				dur := time.Since(t0)
				if err != nil {
					return 0, 0, harness("replay %s %q: %v", name, clip(st.sql), err)
				}
				return dur, log.add(name, parent, 1_000_000+pass*len(stmts)+i, st.class, t0, dur), nil
			}
			dRT, idRT, err := timed("client.roundtrip", -1, func() error { return drain(entry, st.sql) })
			if err != nil {
				return out, err
			}
			if direct != nil {
				var slowest time.Duration
				for si, c := range direct {
					dS, _, err := timed(fmt.Sprintf("shard%d.roundtrip", si), idRT, func() error { return drain(c, st.sql) })
					if err != nil {
						return out, err
					}
					if dS > slowest {
						slowest = dS
					}
				}
				router = append(router, us(dRT-slowest))
			}
			dEng, idEng, err := timed("server.Engine.ExecuteStream", idRT, func() error { _, err := n.engineExec(st.sql); return err })
			if err != nil {
				return out, err
			}
			dDB, idDB, err := timed("query.DB.ExecStream", idEng, func() error { _, err := n.dbExec(st.sql); return err })
			if err != nil {
				return out, err
			}
			dParse, _, err := timed("query.Parse", idDB, func() error { return parseSQL(st.sql) })
			if err != nil {
				return out, err
			}
			if pass == 0 {
				continue // first pass warms every level
			}
			rt = append(rt, us(dRT))
			wireSrv = append(wireSrv, us(dRT-dEng))
			engSelf = append(engSelf, us(dEng-dDB))
			execSelf = append(execSelf, us(dDB-dParse))
			parse = append(parse, us(dParse))
		}
	}
	out.roundtripUs = median(rt)
	out.wireServerUs = median(wireSrv)
	out.engineSelfUs = median(engSelf)
	out.execSelfUs = median(execSelf)
	out.parseUs = median(parse)
	if out.roundtripUs > 0 {
		out.selfSumRatio = (out.wireServerUs + out.engineSelfUs + out.execSelfUs + out.parseUs) / out.roundtripUs
	}
	if len(router) > 0 {
		out.routerUs = median(router)
	}
	// Parse cost per byte on the largest literal-heavy statement the
	// workload sends: a bulk INSERT of the load.
	big := p.load[0]
	dBig, err := perCall(budget/10, 3, func() error { return parseSQL(big) })
	if err != nil {
		return out, harness("parse load statement: %v", err)
	}
	out.parseNsPerByte = float64(dBig.Nanoseconds()) / float64(len(big))
	return out, nil
}

// leaves are the single-function probes of the per-layer table.
type leaves struct {
	wireEncodeNsPerRow, wireDecodeNsPerRow, wireBytesPerRow float64
	btreeProbeUs, ptiProbeUs, ptiPrunedRatio                float64
	colpdfEncodeNsPerTuple, colpdfMassNsPerTuple            float64
	pipeScanNsPerTuple                                      float64
	distEncodeNs, distDecodeNs, distBytes                   float64
	walAppendSyncUs                                         float64
	splitInsertUsPerRow                                     float64
}

// probeLeaves times one exported function per layer on this workload's own
// pdfs and tables. Each probe gets the same small share of the budget.
func probeLeaves(d *deploy, p *wplan, sz sizes, budget time.Duration) (leaves, error) {
	var out leaves
	share := budget / 12
	pdfs := p.pdfs
	if len(pdfs) > 4096 {
		pdfs = pdfs[:4096]
	}
	n := float64(len(pdfs))

	// wire: the floored pdfs a floor_stream statement ships.
	cl, err := dial(d.addr())
	if err != nil {
		return out, harness("%w", err)
	}
	res, err := cl.Query("SELECT rid, value FROM " + p.probeTable + " WHERE value < 50.00005")
	cl.Close() //nolint:errcheck
	if err != nil || res.Table == nil || len(res.Table.Rows) == 0 {
		return out, harness("floored rows for the wire probe: %v", err)
	}
	rows := res.Table.Rows
	if len(rows) > 4096 {
		rows = rows[:4096]
	}
	encode, decode := wireBatchProbe(rows)
	var payload int
	dEnc, _ := perCall(share, 3, func() error { payload = encode(); return nil })
	dDec, err := perCall(share, 3, decode)
	if err != nil {
		return out, harness("decode row batch: %v", err)
	}
	out.wireEncodeNsPerRow = float64(dEnc.Nanoseconds()) / float64(len(rows))
	out.wireDecodeNsPerRow = float64(dDec.Nanoseconds()) / float64(len(rows))
	out.wireBytesPerRow = float64(payload) / float64(len(rows))

	// plan: btree point probe + Restrict on the live table.
	probe, err := d.nodes[0].btreeProbe(p.probeTable)
	if err != nil {
		return out, harness("btree probe: %v", err)
	}
	k := int64(0)
	dBt, _ := perCall(share, 10, func() error { k = (k + 7919) % int64(sz.readings); probe(k); return nil })
	out.btreeProbeUs = us(dBt)

	// index: PTI range-threshold probe at the workload's own selectivity.
	pti := ptiProbe(pdfs)
	var pruned, verified int
	lo := 30.00005
	dPti, _ := perCall(share, 10, func() error {
		lo += 1.7
		if lo > 70 {
			lo -= 40
		}
		_, pr, ve := pti(lo, lo+ptiWidth, ptiProb)
		pruned, verified = pruned+pr, verified+ve
		return nil
	})
	out.ptiProbeUs = us(dPti)
	if pruned+verified > 0 {
		out.ptiPrunedRatio = float64(pruned) / float64(pruned+verified)
	}

	// colpdf: columnar encode and the vectorized interval-mass kernel.
	cenc, cmass := colpdfProbe(pdfs)
	dCe, _ := perCall(share, 3, func() error { cenc(); return nil })
	dCm, _ := perCall(share, 3, func() error { cmass(40.00005, 54.00005); return nil })
	out.colpdfEncodeNsPerTuple = float64(dCe.Nanoseconds()) / n
	out.colpdfMassNsPerTuple = float64(dCm.Nanoseconds()) / n

	// pipe: the scan leaf over the live table.
	scan, err := d.nodes[0].pipeScanProbe(p.probeTable)
	if err != nil {
		return out, harness("scan probe: %v", err)
	}
	var scanned int
	dSc, err := perCall(share, 3, func() error { var err error; scanned, err = scan(); return err })
	if err != nil || scanned == 0 {
		return out, harness("scan probe: %d rows, %v", scanned, err)
	}
	out.pipeScanNsPerTuple = float64(dSc.Nanoseconds()) / float64(scanned)

	// dist: the storage codec of single pdfs.
	denc, ddec := distCodecProbe(pdfs)
	var dbytes int
	dDe, _ := perCall(share, 3, func() error { dbytes = denc(); return nil })
	dDd, err := perCall(share, 3, ddec)
	if err != nil {
		return out, harness("decode pdf: %v", err)
	}
	out.distEncodeNs = float64(dDe.Nanoseconds()) / n
	out.distDecodeNs = float64(dDd.Nanoseconds()) / n
	out.distBytes = float64(dbytes) / n

	// wal: one group commit of a txn8-sized batch on the data filesystem.
	rng := rngFor(1, streamTail, 0, 0)
	var txn []string
	for _, r := range genRows(rng, 1, 8, sz.sensors) {
		txn = append(txn, insertSQL(p.probeTable, []row{r}))
	}
	appendSync, closeLog, err := walProbe(d.root, txn)
	if err != nil {
		return out, harness("wal probe: %v", err)
	}
	dW, err := perCall(share, 20, appendSync)
	closeLog()
	os.Remove(d.root + "/probe.wal") //nolint:errcheck
	if err != nil {
		return out, harness("wal probe: %v", err)
	}
	out.walAppendSyncUs = us(dW)

	// cluster: the router's split of one load_batch statement.
	batch := genRows(rng, 100, sz.loadRows, sz.sensors)
	split, err := splitInsertProbe(insertSQL(p.probeTable, batch), 2)
	if err != nil {
		return out, harness("split probe: %v", err)
	}
	dSp, err := perCall(share, 5, split)
	if err != nil {
		return out, harness("split probe: %v", err)
	}
	out.splitInsertUsPerRow = us(dSp) / float64(len(batch))
	return out, nil
}
