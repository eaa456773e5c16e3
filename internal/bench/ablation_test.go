package bench

import (
	"strings"
	"testing"
)

func TestAblationSymbolicFloors(t *testing.T) {
	r := AblationSymbolicFloors(200, 11)
	if r.SymbolicErr > 1e-12 {
		t.Errorf("symbolic floors must be exact, err = %v", r.SymbolicErr)
	}
	if r.CollapsedErr <= r.SymbolicErr {
		t.Errorf("collapsed path should lose accuracy: %v vs %v", r.CollapsedErr, r.SymbolicErr)
	}
	if r.SymbolicTime <= 0 || r.CollapsedTime <= 0 {
		t.Error("non-positive timings")
	}
}

func TestAblationLazyEagerMerge(t *testing.T) {
	r, err := AblationLazyEagerMerge(500, 12)
	if err != nil {
		t.Fatal(err)
	}
	// Eager merging floors 64-point joints where the selection only needed
	// an 8-point pdf: eight times the support points.
	if r.LazyPoints == 0 || r.EagerPoints != 8*r.LazyPoints {
		t.Errorf("eager floored %d support points, lazy %d; want 8 times as many", r.EagerPoints, r.LazyPoints)
	}
}

func TestAblationHistoryReplay(t *testing.T) {
	rows := AblationHistoryReplay(100, []int{2, 8}, 13)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Replay is quadratic in depth, composition linear: depth·(depth+1)/2
	// floors per reading against depth.
	for _, r := range rows {
		if r.ComposedFloors != 100*r.Depth || r.ReplayFloors != 100*r.Depth*(r.Depth+1)/2 {
			t.Errorf("depth %d: %d floors composed, %d replayed", r.Depth, r.ComposedFloors, r.ReplayFloors)
		}
	}
}

func TestAblationBufferPool(t *testing.T) {
	rows, err := AblationBufferPool(5000, []int{4, 1 << 20}, 14)
	if err != nil {
		t.Fatal(err)
	}
	small, huge := rows[0], rows[1]
	if small.PageReads == 0 {
		t.Error("tiny pool should miss on a big scan")
	}
	if huge.PageReads != 0 {
		t.Errorf("pool larger than file should serve the warm scan with 0 reads, got %d", huge.PageReads)
	}
	out := FormatAblations(AblationSymbolicFloors(10, 1), AblationMergeRow{N: 1}, nil, rows)
	if !strings.Contains(out, "Ablation 4") {
		t.Error("format output missing sections")
	}
}

func TestAblationEquiDepth(t *testing.T) {
	rows := AblationEquiDepth(60, 60, []int{5, 10}, 15)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// The ablation's finding: the paper's equi-width choice wins on
		// range queries over smooth unimodal pdfs — equi-depth spends its
		// budget on the bulk and leaves enormous tail buckets whose uniform
		// interpolation is poor.
		if r.EquiWidthErr >= r.DiscreteErr {
			t.Errorf("bins=%d: equi-width (%v) should beat discrete (%v)",
				r.Bins, r.EquiWidthErr, r.DiscreteErr)
		}
		if r.EquiWidthErr >= r.EquiDepthErr {
			t.Errorf("bins=%d: equi-width (%v) should beat equi-depth (%v) on this workload",
				r.Bins, r.EquiWidthErr, r.EquiDepthErr)
		}
		if r.EquiDepthErr <= 0 || r.EquiWidthErr <= 0 {
			t.Errorf("bins=%d: zero error is implausible", r.Bins)
		}
	}
	if rows[1].EquiDepthErr >= rows[0].EquiDepthErr {
		t.Error("equi-depth error should shrink with more bins")
	}
	out := FormatAblationDepth(rows)
	if !strings.Contains(out, "Ablation 5") {
		t.Error("format output wrong")
	}
}
