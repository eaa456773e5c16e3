package core

import (
	"math"
	"testing"

	"probdb/internal/colpdf"
	"probdb/internal/dist"
	"probdb/internal/numeric"
	"probdb/internal/region"
)

// thresholdTable holds Gaussians placed against the interval [lo, hi] and
// the threshold p: for each target mass p+δ (|δ| ≤ 1e-12, clipped to
// (0, 1)), one row whose mass is Φ(z_hi) (the interval's lower end far in
// the tail), one whose mass is 1−Φ(z_lo), and, unless the target is too small
// for a finite σ, one centred in the interval;
// and rows whose tail bound sits a hair either side of the kernel's cut
// colpdf.ThresholdZ(p). Each row repeats at a few ulp offsets of its mean,
// and uniforms and discrete samplings split the Gaussian runs.
func thresholdTable(t *testing.T, lo, hi, p float64) *Table {
	t.Helper()
	schema := MustSchema(
		Column{Name: "id", Type: IntType},
		Column{Name: "x", Type: FloatType, Uncertain: true},
	)
	tbl := MustTable("T", schema, [][]string{{"x"}}, NewRegistry())
	var ds []dist.Dist
	gauss := func(mu, sigma float64) {
		for k := 0; k < 3; k++ {
			ds = append(ds, dist.NewGaussian(mu, sigma))
			mu = math.Nextafter(mu, math.Inf(1))
		}
		ds = append(ds, dist.NewUniform(lo, hi+1), dist.NewDiscrete([]float64{lo, hi}, []float64{0.5, 0.5}))
	}
	for _, sigma := range []float64{0.1, 0.37} {
		for _, delta := range []float64{-1e-12, -1e-13, 0, 1e-13, 1e-12} {
			m := p + delta
			if !(m > 0 && m < 1) {
				continue
			}
			z := numeric.NormalQuantile(m, 0, 1)
			gauss(hi-z*sigma, sigma)
			gauss(lo+z*sigma, sigma)
			if zc := -numeric.NormalQuantile((1-m)/2, 0, 1); zc > 1e-9 {
				gauss((lo+hi)/2, (hi-lo)/2/zc)
			}
		}
		if z := colpdf.ThresholdZ(p); !math.IsInf(z, -1) {
			for _, eps := range []float64{-1e-9, -1e-15, 0, 1e-15, 1e-9} {
				gauss(hi-(z+eps)*sigma, sigma)
				gauss(lo+(z+eps)*sigma, sigma)
			}
		}
	}
	for i, d := range ds {
		if err := tbl.Insert(Row{
			Values: map[string]Value{"id": Int(int64(i))},
			PDFs:   []PDF{{Attrs: []string{"x"}, Dist: d}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// keepBatches runs sel's batch kernel over in, in batches of 256, vectorized
// or on the scalar reference path.
func keepBatches(t *testing.T, sel *ProbSelection, in []*Tuple, vec bool) []bool {
	t.Helper()
	SetVectorizedKernels(vec)
	defer SetVectorizedKernels(true)
	keep := make([]bool, len(in))
	vals := make([]float64, len(in))
	for from := 0; from < len(in); from += 256 {
		to := min(from+256, len(in))
		if err := sel.KeepBatch(in[from:to], keep[from:to], vals[from:to]); err != nil {
			t.Fatal(err)
		}
	}
	return keep
}

// TestThresholdPruneDifferential: PROB(x IN [lo, hi]) op p, whose kernel
// decides Gaussian rows by a tail bound before evaluating a CDF, keeps
// exactly the rows the scalar reference keeps, for every op and for p at
// both ends of [0, 1] and between, over Gaussians whose exact mass lies
// within 1e-12 of p and Gaussians at the bound's cut. It runs on cached
// batches of the base table, on uncached ones — every other row, as an
// index probe hands over candidates, and a transaction overlay's clone —
// and, where 0 < p < 1, checks that the bound decided some rows.
func TestThresholdPruneDifferential(t *testing.T) {
	const lo, hi = 10.0, 20.0
	ops := []region.Op{region.LT, region.LE, region.GT, region.GE, region.EQ, region.NE}
	for _, p := range []float64{0, 1e-300, 0.5, 0.8, 1 - 0x1p-53, 1} {
		tbl := thresholdTable(t, lo, hi, p)
		near := 0
		for _, tup := range tbl.tuples {
			m, err := tbl.ProbInRange(tup, "x", lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(m-p) <= 1e-12 {
				near++
			}
		}
		if near < 12 {
			t.Fatalf("p=%v: only %d rows have mass within 1e-12 of p", p, near)
		}
		if z := colpdf.ThresholdZ(p); p > 1e-12 && p < 1 {
			n := min(tbl.Len(), 256)
			b := tbl.colBlockFor(0, 0, tbl.slotAt(0, n), tbl.tuples[:n])
			iv := region.Closed(lo, hi)
			exact, bounded := make([]float64, n), make([]float64, n)
			b.EvalInterval(iv, exact)
			b.EvalIntervalBounded(iv, z, bounded)
			decided := 0
			for i := range exact {
				if bounded[i] != exact[i] {
					if bounded[i] != 0 || exact[i] >= p {
						t.Fatalf("p=%v row %d: bound gave %v, exact mass %v", p, i, bounded[i], exact[i])
					}
					decided++
				}
			}
			if decided == 0 {
				t.Fatalf("p=%v: the tail bound decided no row", p)
			}
		} else if !math.IsInf(z, -1) {
			t.Fatalf("p=%v: ThresholdZ = %v, want -Inf", p, z)
		}
		overlay := tbl.Clone()
		var cand []*Tuple
		for i := 0; i < tbl.Len(); i += 2 {
			cand = append(cand, tbl.tuples[i])
		}
		for _, op := range ops {
			vec, scalar := diffRun(t, func() (*Table, error) {
				return tbl.SelectRangeThreshold("x", lo, hi, op, p)
			})
			sameKeptTuples(t, "cached", vec, scalar)
			vec, scalar = diffRun(t, func() (*Table, error) {
				return overlay.SelectRangeThreshold("x", lo, hi, op, p)
			})
			sameKeptTuples(t, "overlay", vec, scalar)
			sel := tbl.PlanRangeThreshold("x", lo, hi, op, p)
			vk, sk := keepBatches(t, sel, cand, true), keepBatches(t, sel, cand, false)
			for i := range vk {
				if vk[i] != sk[i] {
					t.Fatalf("p=%v %v candidate %d: vec %v, scalar %v", p, op, i, vk[i], sk[i])
				}
			}
		}
	}
}
