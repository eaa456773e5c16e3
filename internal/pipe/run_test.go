package pipe

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"probdb/internal/core"
	"probdb/internal/region"
)

// runRoots builds, for every root shape the planner produces, a fresh tree
// whose leaf scans hand out batches of the given size. Each tree's filters
// thin their input, so the root's own batches come out short unless Run
// fills them.
func runRoots(t *testing.T, batch int, empty bool) map[string]func() Operator {
	t.Helper()
	tbl := testTable(t, 1500, 21)
	lo := 30.0
	if empty {
		lo = 1e9 // no Gaussian in the table puts mass above it
	}
	atoms := []core.Atom{
		core.Cmp(core.Col("value"), region.GE, core.LitF(lo)),
		core.Cmp(core.Col("grp"), region.NE, core.LitI(1)),
	}
	sel, err := tbl.PlanSelect(atoms...)
	if err != nil {
		t.Fatal(err)
	}
	proj, err := sel.Out().PlanProject("rid", "value")
	if err != nil {
		t.Fatal(err)
	}
	reg := core.NewRegistry()
	left, right := keyedTable(t, reg, "l", "l_", 400, 22), keyedTable(t, reg, "r", "r_", 25, 23)
	if empty {
		right = keyedTable(t, reg, "r", "r_", 0, 23)
	}
	a, b := seqTable(t, reg, "a", "a", 30), seqTable(t, reg, "b", "b", 17)
	if empty {
		b = seqTable(t, reg, "b", "b", 0)
	}
	ck, err := a.PlanCross(b)
	if err != nil {
		t.Fatal(err)
	}
	scan := func(tb *core.Table) *Scan {
		s := NewScan(tb)
		s.SetBatch(batch)
		return s
	}
	filter := func() *Filter { return NewFilter(scan(tbl), sel) }
	ridCol := sel.Out().Schema().Index("rid")
	return map[string]func() Operator{
		"Scan": func() Operator {
			if empty {
				return scan(tbl.View("none", nil))
			}
			return scan(tbl)
		},
		"Filter": func() Operator { return filter() },
		"ProbFilter": func() Operator {
			return NewProbFilter(filter(), sel.Out().PlanRangeThreshold("value", lo, lo+40, region.GE, 0.3))
		},
		"Limit":      func() Operator { return NewLimit(filter(), 700) },
		"Sort":       func() Operator { return NewSort(filter(), ColumnKey(ridCol), true) },
		"ColumnTopK": func() Operator { return NewColumnTopK(filter(), 600, ridCol, false) },
		"ProbTopK":   func() Operator { return NewProbTopK(filter(), 600, []string{"value"}, true) },
		"EquiJoin": func() Operator {
			// The kernel holds the build side's hash index: one per tree.
			ek, err := left.PlanEquiJoin(right, "l_k", "r_k")
			if err != nil {
				t.Fatal(err)
			}
			return NewEquiJoin(scan(left), NewScan(right), ek)
		},
		"CrossJoin": func() Operator { return NewCrossJoin(scan(a), NewScan(b), ck) },
		"Project":   func() Operator { return NewProject(filter(), proj) },
	}
}

// pullAll drains root by hand, copying every batch out before the next
// pull: the stream Run must reproduce, batch boundaries aside.
func pullAll(t *testing.T, root Operator) (*core.Table, []*core.Tuple) {
	t.Helper()
	if err := root.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	var out []*core.Tuple
	for {
		b, err := root.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			return root.Header(), out
		}
		out = append(out, b...)
	}
}

// TestRunFillsBatches: for every root the planner builds, Run hands its
// sink full BatchSize batches except the last — whatever batch sizes the
// tree produces, smaller or larger — and the same tuples in the same order
// as the tree's own stream. An empty result is exactly one nil batch.
func TestRunFillsBatches(t *testing.T) {
	for _, batch := range []int{7, BatchSize, 300} {
		for name, build := range runRoots(t, batch, false) {
			hdr, want := pullAll(t, build())
			var sizes []int
			var got []*core.Tuple
			if err := Run(context.Background(), build(), func(_ *core.Table, b []*core.Tuple) error {
				sizes = append(sizes, len(b))
				got = append(got, b...)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(want) <= BatchSize {
				t.Fatalf("%s: %d rows; the case needs more than one batch", name, len(want))
			}
			if nb := (len(want) + BatchSize - 1) / BatchSize; len(sizes) != nb {
				t.Fatalf("%s/%d: %d rows in %d batches %v, want %d", name, batch, len(want), len(sizes), sizes, nb)
			}
			for _, n := range sizes[:len(sizes)-1] {
				if n != BatchSize {
					t.Fatalf("%s/%d: a batch short of %d before the last: %v", name, batch, BatchSize, sizes)
				}
			}
			if w, g := hdr.View("r", want).Render(), hdr.View("r", got).Render(); w != g {
				t.Fatalf("%s/%d: Run's stream differs from the tree's:\ntree:\n%s\nRun:\n%s", name, batch, w, g)
			}
		}
	}
	for name, build := range runRoots(t, 7, true) {
		var batches [][]*core.Tuple
		if err := Run(context.Background(), build(), func(_ *core.Table, b []*core.Tuple) error {
			batches = append(batches, b)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(batches) != 1 || batches[0] != nil {
			t.Fatalf("%s: an empty result emitted %d batches, want one nil batch", name, len(batches))
		}
	}
	if n := OpenOperators(); n != 0 {
		t.Fatalf("OpenOperators() = %d after the runs", n)
	}
}

// gated is a leaf that hands out its scan's batches and then, once it has
// handed out a full batch's worth of rows, blocks the next pull until
// release is closed — a scan whose next rows are slow to come.
type gated struct {
	*Scan
	handed  int
	release chan struct{}
}

func (g *gated) Next() ([]*core.Tuple, error) {
	if g.handed >= BatchSize {
		select {
		case <-g.release:
		case <-time.After(10 * time.Second):
			return nil, errors.New("pulled again while a full batch waited to be emitted")
		}
	}
	b, err := g.Scan.Next()
	g.handed += len(b)
	return b, err
}

// TestRunEmitsFullBatchBeforePulling: a full batch reaches the sink before
// Run pulls the tree again, so a slow scan streams; Run fills it from short
// child batches without waiting for more.
func TestRunEmitsFullBatchBeforePulling(t *testing.T) {
	sc := NewScan(testTable(t, 1000, 24))
	sc.SetBatch(64)
	g := &gated{Scan: sc, release: make(chan struct{})}
	var sizes []int
	err := Run(context.Background(), g, func(_ *core.Table, b []*core.Tuple) error {
		if len(sizes) == 0 {
			close(g.release)
		}
		sizes = append(sizes, len(b))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(sizes) != "[256 256 256 232]" {
		t.Fatalf("batches %v, want [256 256 256 232]", sizes)
	}
}
