package main

// This file is the whole surface of probdb the benchmark touches. Every
// import of a probdb package lives here, so a PR that renames or removes
// part of that surface breaks exactly one file of the benchmark. It avoids
// what ROADMAP item 4 schedules for deletion: SetLegacyExec,
// SetVectorizedKernels, Engine.Execute, the materializing core operators,
// internal/store and direct use of exec.MassCache.

import (
	"context"
	"fmt"
	"io/fs"
	"path/filepath"
	"time"

	"probdb/internal/cluster"
	"probdb/internal/colpdf"
	"probdb/internal/core"
	"probdb/internal/dist"
	"probdb/internal/index"
	"probdb/internal/pipe"
	"probdb/internal/plan"
	"probdb/internal/query"
	"probdb/internal/region"
	"probdb/internal/server"
	"probdb/internal/vfs"
	"probdb/internal/wal"
	"probdb/internal/wire"
)

type (
	client    = wire.Client
	wireRow   = wire.Row
	wireStats = wire.Stats
)

func dial(addr string) (*client, error) { return wire.Dial(addr) }

// rowID reads the leading rid column every benchmark SELECT projects.
func rowID(r wireRow) (int64, bool) {
	if len(r.Cells) == 0 || r.Cells[0].Kind != wire.CellValue || r.Cells[0].Value.Kind != core.IntValue {
		return 0, false
	}
	return r.Cells[0].Value.I, true
}

// flushFloor is the least time a flush to stable storage takes in the
// benchmark. The sandbox's fsync is a page-cache operation whose latency
// follows the host's I/O load: 0.25 ms at best, 0.5-0.9 ms on an idle
// afternoon, several ms for minutes at a time when a neighbour writes (one
// such episode moved ingest_txn's median latency by 75 % between runs of
// one binary). Every Sync is really performed and then padded to this
// floor, so the engine sees a device with a steady 2 ms flush — a plausible
// SSD — instead of the sandbox's mood. Only an episode slower than the floor
// still shows.
const flushFloor = 2 * time.Millisecond

// flooredFS is the real filesystem with flushFloor under every Sync.
type flooredFS struct{ vfs.FS }

func (f flooredFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return flooredFile{file}, nil
}

func (f flooredFS) SyncDir(dir string) error {
	defer padFlush(time.Now())
	return f.FS.SyncDir(dir)
}

type flooredFile struct{ vfs.File }

func (f flooredFile) Sync() error {
	defer padFlush(time.Now())
	return f.File.Sync()
}

func padFlush(start time.Time) {
	if d := time.Since(start); d < flushFloor {
		time.Sleep(flushFloor - d)
	}
}

// serverConfig is the shipped probserve default except for the fields a
// deployment must choose (listen address, data dir, and here the floored
// filesystem) and Parallelism, which the cluster workload pins to 1 per
// shard.
func serverConfig(dir string, parallelism int) server.Config {
	return server.Config{Addr: "127.0.0.1:0", DataDir: dir, Parallelism: parallelism, FS: flooredFS{vfs.OS}}
}

// node is one in-process probserve over an on-disk data dir.
type node struct {
	srv *server.Server
	dir string
	par int
}

func startNode(dir string, parallelism int) (*node, error) {
	s, err := server.New(serverConfig(dir, parallelism))
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", dir, err)
	}
	if err := s.Start(); err != nil {
		s.Engine().Abort()
		return nil, fmt.Errorf("listen: %w", err)
	}
	return &node{srv: s, dir: dir, par: parallelism}, nil
}

func (n *node) addr() string { return n.srv.Addr().String() }

// stop drains and closes cleanly; Close checkpoints the WAL tail.
func (n *node) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return n.srv.Shutdown(ctx)
}

// crash drops every file handle without flushing or checkpointing, then
// tears the listener down. The OS page cache survives, so what recovery
// reads back is what the process wrote, not what a device kept.
func (n *node) crash() error {
	n.srv.Engine().Abort()
	return n.stop()
}

func (n *node) colCacheCounters() (hits, misses uint64) {
	return n.srv.Engine().DB().Registry().ColCache().Counters()
}

// engineExec runs one statement through Engine.ExecuteStream, below the
// socket, the session loop and admission.
func (n *node) engineExec(sql string) (rows int, err error) {
	_, _, err = n.srv.Engine().ExecuteStream(context.Background(), sql, func(_ *core.Table, b []*core.Tuple) error {
		rows += len(b)
		return nil
	})
	return rows, err
}

// dbExec runs one SELECT through query.DB.ExecStream on the authoritative
// catalog, below the engine's routing, locking and stats bookkeeping. Only
// SELECTs may come here: a write would bypass the WAL.
func (n *node) dbExec(sql string) (rows int, err error) {
	_, err = n.srv.Engine().DB().ExecStream(context.Background(), sql, func(_ *core.Table, b []*core.Tuple) error {
		rows += len(b)
		return nil
	})
	return rows, err
}

func parseSQL(sql string) error {
	_, err := query.Parse(sql)
	return err
}

// routerNode is one in-process probrouter.
type routerNode struct {
	r *cluster.Router
}

func startRouter(dir string, shardAddrs []string) (*routerNode, error) {
	var specs []cluster.ShardSpec
	for _, a := range shardAddrs {
		specs = append(specs, cluster.ShardSpec{Addr: a})
	}
	r, err := cluster.NewRouter(cluster.Config{Addr: "127.0.0.1:0", Dir: dir, Shards: specs})
	if err != nil {
		return nil, err
	}
	if err := r.Start(); err != nil {
		return nil, err
	}
	return &routerNode{r: r}, nil
}

func (r *routerNode) addr() string { return r.r.Addr().String() }

func (r *routerNode) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return r.r.Shutdown(ctx)
}

// shardOf is the router's partition function over the first column.
func shardOf(rid int64, shards int) int { return cluster.Partition(core.Int(rid), shards) }

// --- leaf probes: one call into one layer's exported function each ---------

func refDist(p pdf) dist.Dist {
	switch p.kind {
	case kindGauss:
		return dist.NewGaussianVar(p.a, p.b)
	case kindUnif:
		return dist.NewUniform(p.a, p.b)
	default:
		return dist.NewDiscrete(p.v[:], p.p[:])
	}
}

// refMassIn is the engine's own interval mass, the reference the oracle's
// closed forms are unit-tested against.
func refMassIn(p pdf, lo, hi float64) float64 { return dist.MassInterval(refDist(p), lo, hi) }
func refCDF(p pdf, x float64) float64         { return dist.CDF(refDist(p), x) }
func refMean(p pdf) float64                   { d := refDist(p); return d.Mass() * d.Mean(0) }

// wireBatchProbe encodes and decodes rows as RowBatch frames of the
// executor's batch size, the way the server ships them.
func wireBatchProbe(rows []wireRow) (encode func() int, decode func() error) {
	var payloads [][]byte
	encode = func() int {
		payloads = payloads[:0]
		n := 0
		for i, seq := 0, uint64(1); i < len(rows); i, seq = i+pipe.BatchSize, seq+1 {
			j := i + pipe.BatchSize
			if j > len(rows) {
				j = len(rows)
			}
			p := wire.EncodeRowBatch(&wire.RowBatch{Seq: seq, Rows: rows[i:j]})
			payloads = append(payloads, p)
			n += len(p)
		}
		return n
	}
	decode = func() error {
		for _, p := range payloads {
			if _, err := wire.DecodeRowBatch(p); err != nil {
				return err
			}
		}
		return nil
	}
	return encode, decode
}

// btreeProbe builds a btree access path over the live table's rid column and
// returns the planner's point-lookup pair: ProbeBTree, then Restrict.
func (n *node) btreeProbe(table string) (func(rid int64) int, error) {
	t, ok := n.srv.Engine().DB().Table(table)
	if !ok {
		return nil, fmt.Errorf("no table %s", table)
	}
	ti := plan.NewTableIndexes()
	if err := ti.Create(t, "rid"); err != nil {
		return nil, err
	}
	return func(rid int64) int {
		cand, ok := ti.ProbeBTree("rid", region.EQ, core.Int(rid))
		if !ok {
			return -1
		}
		return len(ti.Restrict(t, cand))
	}, nil
}

// ptiProbe builds a PTI over the given pdfs and returns RangeThreshold.
func ptiProbe(pdfs []pdf) func(lo, hi, p float64) (matched, pruned, verified int) {
	items := make([]index.Item, len(pdfs))
	for i, p := range pdfs {
		items[i] = index.Item{RID: int64(i), Dist: refDist(p)}
	}
	ix := index.Build(items)
	return func(lo, hi, p float64) (int, int, int) {
		ids, st := ix.RangeThreshold(lo, hi, p)
		return len(ids), st.Pruned, st.Verified
	}
}

// colpdfProbe returns the columnar encode and the vectorized interval-mass
// kernel over executor-sized blocks of the given pdfs.
func colpdfProbe(pdfs []pdf) (encode func(), massInterval func(lo, hi float64)) {
	var chunks [][]dist.Dist
	for i := 0; i < len(pdfs); i += pipe.BatchSize {
		j := i + pipe.BatchSize
		if j > len(pdfs) {
			j = len(pdfs)
		}
		c := make([]dist.Dist, j-i)
		for k := range c {
			c[k] = refDist(pdfs[i+k])
		}
		chunks = append(chunks, c)
	}
	blocks := make([]*colpdf.Block, len(chunks))
	encode = func() {
		for i, c := range chunks {
			blocks[i] = colpdf.Encode(c, 0, nil)
		}
	}
	encode()
	out := make([]float64, pipe.BatchSize)
	massInterval = func(lo, hi float64) {
		for i, b := range blocks {
			b.MassIntervalVec(0, len(chunks[i]), lo, hi, out)
		}
	}
	return encode, massInterval
}

// pipeScanProbe pulls the live table through the pipelined scan leaf.
func (n *node) pipeScanProbe(table string) (func() (int, error), error) {
	t, ok := n.srv.Engine().DB().Table(table)
	if !ok {
		return nil, fmt.Errorf("no table %s", table)
	}
	return func() (int, error) {
		rows := 0
		err := pipe.Run(context.Background(), pipe.NewScan(t), func(_ *core.Table, b []*core.Tuple) error {
			rows += len(b)
			return nil
		})
		return rows, err
	}, nil
}

// distCodecProbe returns the storage codec of single pdfs.
func distCodecProbe(pdfs []pdf) (encode func() int, decode func() error) {
	ds := make([]dist.Dist, len(pdfs))
	for i, p := range pdfs {
		ds[i] = refDist(p)
	}
	bufs := make([][]byte, len(ds))
	encode = func() int {
		n := 0
		for i, d := range ds {
			bufs[i] = dist.Encode(d)
			n += len(bufs[i])
		}
		return n
	}
	decode = func() error {
		for _, b := range bufs {
			if _, _, err := dist.Decode(b); err != nil {
				return err
			}
		}
		return nil
	}
	return encode, decode
}

// walProbe opens a scratch log beside the data, on the floored filesystem the
// servers run on, and returns one group commit of a transaction's statements
// plus its commit marker: one write, one fsync.
func walProbe(dir string, stmts []string) (appendSync func() error, closeLog func(), err error) {
	l, err := wal.Create(flooredFS{vfs.OS}, filepath.Join(dir, "probe.wal"))
	if err != nil {
		return nil, nil, err
	}
	recs := make([]wal.Record, 0, len(stmts)+1)
	for _, s := range stmts {
		recs = append(recs, wal.Record{Type: wal.TypeTxnStmt, Data: wal.EncodeTxn(1, s)})
	}
	recs = append(recs, wal.Record{Type: wal.TypeTxnCommit, Data: wal.EncodeTxn(1, "")})
	return func() error { return l.AppendBatch(recs) }, func() { l.Close() }, nil //nolint:errcheck
}

// splitInsertProbe returns the router's per-shard split of one INSERT; the
// statement is parsed once outside, as the router's own parse is timed apart.
func splitInsertProbe(sql string, shards int) (func() error, error) {
	st, err := query.Parse(sql)
	if err != nil {
		return nil, err
	}
	ins, ok := st.(query.Insert)
	if !ok {
		return nil, fmt.Errorf("not an INSERT")
	}
	return func() error {
		_, _, err := cluster.SplitInsert(sql, ins, "rid", shards, 1)
		return err
	}, nil
}
