package core

import (
	"sync/atomic"

	"probdb/internal/colpdf"
	"probdb/internal/dist"
)

// This file routes the filter kernels through the columnar batch
// representation (internal/colpdf). The executor and the whole-table Run*
// drivers hand kernels contiguous 256-tuple batches; colBlockFor turns one
// dependency set of one batch into a colpdf.Block — kept in the batch's slot
// when the batch is a verified slice of a base table, encoded as per-batch
// scratch otherwise — and the batch kernels in kernels.go evaluate the
// block's flat lanes in place of the per-tuple interface walk. The scalar
// per-tuple path remains the reference implementation:
// SetVectorizedKernels(false) forces it, and the differential suites prove
// both paths byte-identical.

// colBatchSize is the tuple granularity of a base table's encodings. It
// matches pipe.BatchSize so the executor's scan batches and the whole-table
// Run* drivers read the same slots.
const colBatchSize = 256

// encSlot holds the encodings of one colBatchSize-row batch of a base table,
// each built by the first reader that needs it: one Block per dependency set
// and dimension (entry blockIndex), one Lane per column (entry col). Pairing
// them in one slice makes a new batch's slot one allocation.
//
// Rows are only ever appended to a slot's batch, so every table value that
// shares the slot — the table, its Freeze snapshots and their Renamed
// views — agrees on the batch's first n rows, and an encoding serves a batch
// exactly when it covers len(batch) rows. DML keeps this true: store gives
// each new batch a slot, Delete gives fresh slots from the batch of the
// first removed row on, and Clone gives a partial last batch a fresh slot,
// since the original and the clone may append different rows to it.
type encSlot []struct {
	block atomic.Pointer[colpdf.Block]
	lane  atomic.Pointer[colpdf.Lane]
}

// newSlot returns an empty slot with an entry for each of the table's
// blocks and columns.
func (t *Table) newSlot() encSlot {
	return make(encSlot, max(t.blockIndex(len(t.deps), 0), t.schema.Len()))
}

// blockIndex is the slot entry of the Block of dependency set di, dimension
// dim.
func (t *Table) blockIndex(di, dim int) int {
	for _, d := range t.deps[:di] {
		dim += len(d.ids)
	}
	return dim
}

// slotAt returns the slot of the batch of n rows at offset at of t.tuples,
// or nil when there is none: a derived table, an offset off the batch grid
// (at < 0 for a batch that is no slice of the table), or a batch that would
// span two slots.
func (t *Table) slotAt(at, n int) encSlot {
	if at < 0 || at%colBatchSize != 0 || n > colBatchSize || at/colBatchSize >= len(t.enc) {
		return nil
	}
	return t.enc[at/colBatchSize]
}

// slotOf finds the slot of a streamed batch. Batches arrive in table order
// from the pipelined executor, so *cursor — where the previous batch ended —
// finds them, and a re-scan starts over from the top. It returns nil for a
// derived table and for a batch that is not a slice of the table.
func (t *Table) slotOf(cursor *int, in []*Tuple) encSlot {
	if t.enc == nil {
		return nil
	}
	at := -1
	if t.batchAt(*cursor, in) {
		at = *cursor
	} else if *cursor != 0 && t.batchAt(0, in) {
		at = 0 // the source was re-scanned from the top
	}
	if at < 0 {
		return nil
	}
	*cursor = at + len(in)
	return t.slotAt(at, len(in))
}

// EncodedBytes estimates the bytes the table's batch encodings hold (0 for
// a derived table): table memory like its tuples, bounded by the table's
// size and dropped with it.
func (t *Table) EncodedBytes() int64 {
	var n int64
	for _, s := range t.enc {
		for i := range s {
			if b := s[i].block.Load(); b != nil {
				n += b.MemCost()
			}
			if l := s[i].lane.Load(); l != nil {
				n += l.MemCost()
			}
		}
	}
	return n
}

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
// over them in order — the outer loop of RunSelection and RunProbSelection.
// Alignment to colBatchSize lets those whole-table runs and the executor's
// scans share the batch slots.
func forColBatches(n int, fn func(from, to int) error) error {
	for from := 0; from < n; from += colBatchSize {
		if err := fn(from, min(from+colBatchSize, n)); err != nil {
			return err
		}
	}
	return nil
}

// batchAt verifies that in is exactly t.tuples[at : at+len(in)] — the
// precondition for reading the batch's slot. Pointer equality per tuple:
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
// dimension dim) over the batch in, whose slot is s — read from the slot,
// or built and stored there — or per-call scratch when s is nil. The
// existence-mass lane holds each node's Dist.Mass(), the float the scalar
// path reads, so the two agree bit for bit.
func (t *Table) colBlockFor(di, dim int, s encSlot, in []*Tuple) *colpdf.Block {
	var p *atomic.Pointer[colpdf.Block]
	if s != nil {
		p = &s[t.blockIndex(di, dim)].block
		b := p.Load()
		hit := b != nil && b.Len() == len(in)
		t.reg.colenc.Note(hit)
		if hit {
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
	if p != nil {
		p.Store(b)
	}
	return b
}

// certainLane returns the value lane of certain column col over the batch
// in, whose slot is s: read from the slot, or built and stored there. The
// lane holds each row's Value.AsFloat, the floats the scalar filter
// compares, so the two agree bit for bit.
func (t *Table) certainLane(col int, s encSlot, in []*Tuple) *colpdf.Lane {
	p := &s[col].lane
	if l := p.Load(); l != nil && len(l.Vals) == len(in) {
		return l
	}
	vals := make([]float64, len(in))
	num := make([]bool, len(in))
	for i, tup := range in {
		vals[i], num[i] = tup.certain[col].AsFloat()
	}
	l := colpdf.NewLane(vals, num)
	p.Store(l)
	return l
}
