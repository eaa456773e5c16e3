package core

import (
	"sync/atomic"

	"probdb/internal/colpdf"
	"probdb/internal/dist"
	"probdb/internal/exec"
)

// This file routes the filter kernels through the columnar batch
// representation (internal/colpdf). The executor and the whole-table Run*
// drivers hand kernels contiguous 256-tuple batches; colBlockFor turns one
// dependency set of one batch into a colpdf.Block — from the registry's
// encoding cache when the batch is a verified slice of a base table,
// re-encoded as per-batch scratch otherwise — and the batch kernels in
// kernels.go evaluate the block's flat lanes in place of the per-tuple
// interface walk. The scalar per-tuple path remains the reference
// implementation: SetVectorizedKernels(false) forces it, and the
// differential suites prove both paths byte-identical.

// colBatchSize is the tuple granularity of cached columnar encodings. It
// matches pipe.BatchSize so the executor's scan batches and the whole-table
// Run* drivers share cache entries.
const colBatchSize = 256

// vectorizedOff flips the engine onto the scalar reference path. The zero
// value (vectorization on) is the default.
var vectorizedOff atomic.Bool

// SetVectorizedKernels toggles the vectorized columnar kernels process-wide.
// Differential tests and the columnar benchmark use it to compare the
// vectorized path against the scalar reference; production leaves it on.
func SetVectorizedKernels(on bool) { vectorizedOff.Store(!on) }

// VectorizedKernels reports whether the vectorized kernels are enabled.
func VectorizedKernels() bool { return !vectorizedOff.Load() }

// kernelStats counts how a kernel's tuples were evaluated. Counters are
// atomic: batches within one query evaluate on worker goroutines.
type kernelStats struct {
	vec    atomic.Uint64
	scalar atomic.Uint64
	runs   atomic.Uint64
	fams   atomic.Uint32
}

// note folds one batch's range statistics in. massOnly marks kernels whose
// per-tuple work is an existence-mass lane read, which vectorizes for every
// family including fallback.
func (s *kernelStats) note(rs colpdf.RangeStats, massOnly bool) {
	if massOnly {
		s.vec.Add(uint64(rs.Vec + rs.Fallback))
	} else {
		s.vec.Add(uint64(rs.Vec))
		s.scalar.Add(uint64(rs.Fallback))
	}
	s.runs.Add(uint64(rs.Runs))
	if rs.FamMask != 0 {
		for {
			old := s.fams.Load()
			if old|uint32(rs.FamMask) == old || s.fams.CompareAndSwap(old, old|uint32(rs.FamMask)) {
				break
			}
		}
	}
}

// KernelReport is one filter kernel's evaluation summary: how many tuples
// took the vectorized lanes vs the scalar path, over how many runs and
// which families. EXPLAIN renders it as the kernel strategy; the per-query
// totals feed wire.Stats VecTuples/ScalarTuples.
type KernelReport struct {
	Name     string
	Vec      uint64
	Scalar   uint64
	Runs     uint64
	Families []string
}

func (s *kernelStats) report(name string) KernelReport {
	return KernelReport{
		Name:     name,
		Vec:      s.vec.Load(),
		Scalar:   s.scalar.Load(),
		Runs:     s.runs.Load(),
		Families: colpdf.FamilyNames(uint16(s.fams.Load())),
	}
}

// forColBatches splits [0, n) into colBatchSize-aligned batches and runs fn
// over them on the morsel pool — the vectorized whole-table drivers' outer
// loop. Alignment to colBatchSize keeps the cached encodings shared between
// those drivers and the executor's scans regardless of parallelism.
func forColBatches(par, n int, fn func(from, to int) error) error {
	nb := (n + colBatchSize - 1) / colBatchSize
	return exec.For(par, nb, func(lo, hi int) error {
		for bi := lo; bi < hi; bi++ {
			from := bi * colBatchSize
			to := from + colBatchSize
			if to > n {
				to = n
			}
			if err := fn(from, to); err != nil {
				return err
			}
		}
		return nil
	})
}

// batchAt verifies that in is exactly t.tuples[at : at+len(in)] — the
// precondition for serving a cached encoding. Pointer equality per tuple:
// cheap next to evaluation, and immune to every way an upstream operator
// can reorder, filter, or rebuild tuples.
func (t *Table) batchAt(at int, in []*Tuple) bool {
	if at < 0 || at+len(in) > len(t.tuples) {
		return false
	}
	for i, tup := range in {
		if t.tuples[at+i] != tup {
			return false
		}
	}
	return true
}

// colBlockFor returns the columnar encoding of dependency set di (marginal
// dimension dim) over the batch in. at is the batch's verified offset into
// t.tuples, or -1 for a batch that is not a slice of the table — cached in
// the registry's encoding cache in the first case (keyed by table identity,
// DML version, dep, dim, and batch range), per-call scratch in the second.
// The existence-mass lane holds each node's Dist.Mass(), the float the
// scalar path reads, so the two agree bit for bit.
func (t *Table) colBlockFor(di, dim, at int, in []*Tuple) *colpdf.Block {
	var key colpdf.CacheKey
	cached := t.tid != 0 && at >= 0
	if cached {
		key = colpdf.CacheKey{
			Table: t.tid, Ver: t.ver,
			Dep: int32(di), Dim: int32(dim),
			From: int32(at), N: int32(len(in)),
		}
		if b := t.reg.colenc.Get(key); b != nil {
			return b
		}
	}
	dists := make([]dist.Dist, len(in))
	mass := make([]float64, len(in))
	for i, tup := range in {
		n := tup.nodes[di]
		dists[i] = n.Dist
		mass[i] = n.Dist.Mass()
	}
	b := colpdf.Encode(dists, dim, mass)
	if cached {
		t.reg.colenc.Put(key, b, b.MemCost())
	}
	return b
}

// certainLane returns the value lane of certain column col over the batch
// in, a verified slice of the table at offset at, from the registry's
// encoding cache (keyed as a block is, with Dep -1-col) or built and cached
// there. The lane holds each row's Value.AsFloat, the floats the scalar
// filter compares, so the two agree bit for bit.
func (t *Table) certainLane(col, at int, in []*Tuple) *colpdf.Lane {
	key := colpdf.CacheKey{
		Table: t.tid, Ver: t.ver,
		Dep:  -1 - int32(col),
		From: int32(at), N: int32(len(in)),
	}
	if l := t.reg.colenc.GetLane(key); l != nil {
		return l
	}
	vals := make([]float64, len(in))
	num := make([]bool, len(in))
	for i, tup := range in {
		vals[i], num[i] = tup.certain[col].AsFloat()
	}
	l := colpdf.NewLane(vals, num)
	t.reg.colenc.Put(key, l, l.MemCost())
	return l
}
