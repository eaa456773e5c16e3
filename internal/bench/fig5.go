package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"probdb/internal/dist"
	"probdb/internal/storage"
	"probdb/internal/workload"
)

// Repr names a pdf representation under test in Fig. 5.
type Repr string

// The representations the paper compares: 25-point discrete sampling and
// 5-bin histograms ("an equivalent level of accuracy", §IV-B), plus the
// symbolic form whose runtimes the paper reports as "just under the
// five-bin histogram times".
const (
	ReprDiscrete25 Repr = "discrete25"
	ReprHist5      Repr = "hist5"
	ReprSymbolic   Repr = "symbolic"
)

// ConvertRepr renders a symbolic pdf into the named representation (the
// per-representation build step of Fig. 5, also used by cmd/probgen).
func ConvertRepr(rp Repr, d dist.Dist) dist.Dist { return rp.convert(d) }

// convert renders a symbolic reading into the representation.
func (rp Repr) convert(d dist.Dist) dist.Dist {
	switch rp {
	case ReprDiscrete25:
		return dist.Discretize(d, 25)
	case ReprHist5:
		return dist.ToHistogram(d, 5)
	case ReprSymbolic:
		return d
	}
	panic(fmt.Sprintf("bench: unknown representation %q", rp))
}

// Fig5Config parameterizes the performance experiment: table sizes, the
// representations, the number of scan queries per measurement, and the
// buffer pool size (kept far below the file sizes so scans are I/O-bound,
// as in the paper's 2 GB machine against multi-GB tables).
type Fig5Config struct {
	Sizes     []int
	Reprs     []Repr
	Queries   int
	PoolPages int
	Threshold float64
	Dir       string // working directory for page files ("" = temp)
	Seed      int64
}

// DefaultFig5 scales the paper's 0.5M–3M tuples down to laptop-friendly
// sizes while preserving the size ratios between points; cmd/probbench can
// run the full-scale sweep.
var DefaultFig5 = Fig5Config{
	Sizes:     []int{50_000, 100_000, 150_000, 200_000, 250_000, 300_000},
	Reprs:     []Repr{ReprDiscrete25, ReprHist5, ReprSymbolic},
	Queries:   3,
	PoolPages: 256, // 2 MiB — far below every file size
	Threshold: 0.5,
	Seed:      20080402,
}

// Fig5Row is one point of Fig. 5: the average runtime of a probabilistic
// threshold range query (full scan) over a table of NTuples readings in the
// given representation, with the page I/O that produced it.
type Fig5Row struct {
	NTuples       int
	Repr          Repr
	Pages         int
	BytesPerTuple float64
	BuildTime     time.Duration
	QueryTime     time.Duration // average per query
	PageReads     uint64        // average per query
	Matches       int           // result size of the last query (sanity)
}

// Fig5 runs the performance-of-discretized-pdfs experiment: it materializes
// Readings(rid, value) heap files per representation and size, then times
// cold range-query scans (Pr(value ∈ [lo,hi]) ≥ threshold).
func Fig5(cfg Fig5Config) ([]Fig5Row, error) {
	if len(cfg.Sizes) == 0 {
		cfg = DefaultFig5
	}
	dir := cfg.Dir
	if dir == "" {
		d, err := os.MkdirTemp("", "probdb-fig5-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(d)
		dir = d
	}
	var rows []Fig5Row
	for _, n := range cfg.Sizes {
		for _, rp := range cfg.Reprs {
			row, err := fig5One(cfg, dir, n, rp)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func fig5One(cfg Fig5Config, dir string, n int, rp Repr) (Fig5Row, error) {
	path := filepath.Join(dir, fmt.Sprintf("readings-%s-%d.pages", rp, n))
	fp, err := storage.OpenFile(path)
	if err != nil {
		return Fig5Row{}, err
	}
	defer func() {
		fp.Close()
		os.Remove(path)
	}()
	pool := storage.NewPool(fp, cfg.PoolPages)
	heap := storage.NewHeap(pool)

	gen := workload.NewGen(cfg.Seed)
	buildStart := time.Now()
	var bytes int64
	for i := 0; i < n; i++ {
		rd := gen.Reading(int64(i))
		rec := workload.EncodeReading(workload.Reading{RID: rd.RID, Value: rp.convert(rd.Value)})
		bytes += int64(len(rec))
		if _, err := heap.Append(rec); err != nil {
			return Fig5Row{}, err
		}
	}
	if err := pool.Flush(); err != nil {
		return Fig5Row{}, err
	}
	buildTime := time.Since(buildStart)

	queries := gen.RangeQueries(cfg.Queries)
	var totalQuery time.Duration
	var totalReads uint64
	matches := 0
	for _, q := range queries {
		// Each query runs twice from a cold pool; the faster run is kept so
		// one-off system hiccups do not distort the sweep.
		var best time.Duration
		var bestReads uint64
		for rep := 0; rep < 2; rep++ {
			if err := pool.Invalidate(); err != nil {
				return Fig5Row{}, err
			}
			pool.ResetStats()
			start := time.Now()
			matches = 0
			err := heap.Scan(func(_ storage.RID, rec []byte) error {
				d, err := workload.DecodeReadingValue(rec)
				if err != nil {
					return err
				}
				if dist.MassInterval(d, q.Lo, q.Hi) >= cfg.Threshold {
					matches++
				}
				return nil
			})
			if err != nil {
				return Fig5Row{}, err
			}
			elapsed := time.Since(start)
			if rep == 0 || elapsed < best {
				best = elapsed
				bestReads = pool.Stats().PageReads
			}
		}
		totalQuery += best
		totalReads += bestReads
	}
	nq := len(queries)
	return Fig5Row{
		NTuples:       n,
		Repr:          rp,
		Pages:         int(heap.NumPages()),
		BytesPerTuple: float64(bytes) / float64(n),
		BuildTime:     buildTime,
		QueryTime:     totalQuery / time.Duration(nq),
		PageReads:     totalReads / uint64(nq),
		Matches:       matches,
	}, nil
}

// FormatFig5 renders rows as the table behind Fig. 5.
func FormatFig5(rows []Fig5Row) string {
	s := "Fig. 5 — Performance of Discretized PDFs (cold scan range query)\n"
	s += fmt.Sprintf("%-10s %-12s %-9s %-8s %-12s %-12s %-10s\n",
		"tuples", "repr", "pages", "B/tuple", "build", "query", "pageReads")
	for _, r := range rows {
		s += fmt.Sprintf("%-10d %-12s %-9d %-8.1f %-12v %-12v %-10d\n",
			r.NTuples, r.Repr, r.Pages, r.BytesPerTuple,
			r.BuildTime.Round(time.Millisecond), r.QueryTime.Round(time.Millisecond), r.PageReads)
	}
	return s
}
