// Package pipe is the pipelined physical-operator layer: a Volcano-style
// Open/Next/Close interface over fixed-size batches of core tuples. The
// paper's closure property Ω makes selection, projection and join emit
// tuples independently of one another, so a tree of these operators
// produces exactly the tuples — bit for bit, in the same order — that the
// materializing *Table methods produce, while holding only O(batch) rows
// at a time and terminating early under LIMIT.
//
// Operators do no relational reasoning of their own: the per-tuple work is
// the compiled kernels of internal/core (Selection, ProbSelection,
// Projection, CrossKernel, EquiJoinKernel), planned once by the query layer
// against header tables and evaluated here one batch at a time. core's
// whole-table methods run the same kernels, which is what keeps this
// executor byte-identical to the reference evaluator built from them.
package pipe

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"probdb/internal/colpdf"
	"probdb/internal/core"
	"probdb/internal/govern"
)

// BatchSize is the default number of tuples per batch: large enough that
// per-batch overhead vanishes and that the kernels which build or floor a
// pdf per row can split a batch into morsels (exec.For runs ranges below 32
// inline), small enough that a selective LIMIT query touches a few hundred
// rows, not the table.
const BatchSize = 256

// Operator is one node of a physical plan. The contract:
//
//   - Open(ctx) acquires resources; pipeline breakers (TopK, Sort) drain
//     their child here. Open must be called exactly once, before Next, and
//     balanced by Close even when it fails.
//   - Header() is the empty derived table defining the output shape (name,
//     schema, dependency sets); valid once Open has returned.
//   - Next returns the next batch: a non-empty slice, or nil when the
//     stream is exhausted. Batches must not be mutated by callers, and a
//     returned batch is valid only until the next Next or Close on that
//     operator (filters and Project reuse their output buffer): copy out
//     what must outlive it.
//   - Close releases resources, closes children, and is idempotent.
type Operator interface {
	Header() *core.Table
	Open(ctx context.Context) error
	Next() ([]*core.Tuple, error)
	Close() error
}

// openOps counts currently-open operators, for leak assertions in tests:
// after a query finishes — or is cancelled mid-stream — it must be zero.
var openOps atomic.Int64

// OpenOperators returns the number of operators opened but not yet closed
// across the process.
func OpenOperators() int64 { return openOps.Load() }

// base carries the Open/Close bookkeeping every operator shares, including
// the memory accounting: buffering operators charge their working set
// against the query budget carried in the context (govern.WithBudget), and
// close releases every charge in one step — so a cancelled or failed query
// returns its memory the moment its tree is closed. With no budget in the
// context every charge is a no-op and the operators behave exactly as
// before (the differential-suite guarantee).
type base struct {
	ctx      context.Context
	bud      *govern.Budget
	reserved int64
	opened   bool
	closed   bool
}

func (b *base) open(ctx context.Context) {
	b.ctx = ctx
	b.bud = govern.FromContext(ctx)
	b.opened = true
	openOps.Add(1)
}

// charge reserves n more bytes for this operator's buffers. On refusal the
// typed *govern.BudgetError propagates up and kills only this query; the
// bytes already reserved stay charged until close releases them.
func (b *base) charge(n int64) error {
	if n <= 0 {
		return nil
	}
	if err := b.bud.Reserve(n); err != nil {
		return err
	}
	b.reserved += n
	return nil
}

func (b *base) close() {
	if b.opened && !b.closed {
		openOps.Add(-1)
		b.bud.Release(b.reserved)
		b.reserved = 0
	}
	b.closed = true
}

// Scan is the leaf operator: it hands out a table's tuples in order, one
// batch per Next. The table is whatever the access path produced — the base
// table for a full scan, or a View of the index candidates for a PTI or
// btree probe — so Header is the table itself and downstream kernels plan
// against it directly.
type Scan struct {
	base
	t     *core.Table
	batch int
	pos   int
}

// NewScan returns a scan over the table's tuples.
func NewScan(t *core.Table) *Scan { return &Scan{t: t, batch: BatchSize} }

// SetBatch overrides the batch size (tests use tiny batches to exercise
// boundaries).
func (s *Scan) SetBatch(n int) { s.batch = n }

// Pos reports how many tuples the scan has handed out so far — tests use it
// to prove a LIMIT query stopped before the end of the table.
func (s *Scan) Pos() int { return s.pos }

func (s *Scan) Header() *core.Table { return s.t }

func (s *Scan) Open(ctx context.Context) error {
	s.open(ctx)
	return nil
}

func (s *Scan) Next() ([]*core.Tuple, error) {
	if err := s.ctx.Err(); err != nil {
		return nil, err
	}
	tups := s.t.Tuples()
	if s.pos >= len(tups) {
		return nil, nil
	}
	end := s.pos + s.batch
	if end > len(tups) {
		end = len(tups)
	}
	b := tups[s.pos:end]
	s.pos = end
	return b, nil
}

func (s *Scan) Close() error {
	s.close()
	return nil
}

// Filter applies a compiled Selection kernel batch by batch: pending masses,
// then the survivors built (core/pending.go). Within a batch the evaluation
// writes index-aligned slots, compacted in order — the same discipline
// Table.Select uses over the whole table, so the surviving tuples and their
// floats are bitwise identical.
type Filter struct {
	base
	child Operator
	sel   *core.Selection
	pend  core.Pending  // reused across Next calls
	slots []*core.Tuple // reused across Next calls; compacted into the output
}

// NewFilter wraps child with a selection kernel planned against its header.
func NewFilter(child Operator, sel *core.Selection) *Filter {
	return &Filter{child: child, sel: sel}
}

func (f *Filter) Header() *core.Table { return f.sel.Out() }

func (f *Filter) Open(ctx context.Context) error {
	f.open(ctx)
	return f.child.Open(ctx)
}

func (f *Filter) Next() ([]*core.Tuple, error) {
	for {
		if err := f.ctx.Err(); err != nil {
			return nil, err
		}
		in, err := f.child.Next()
		if err != nil {
			return nil, err
		}
		if in == nil {
			return nil, nil
		}
		if cap(f.slots) < len(in) {
			f.slots = make([]*core.Tuple, len(in))
		}
		slots := f.slots[:len(in)]
		if err := f.sel.EvalBatch(in, &f.pend, slots); err != nil {
			return nil, err
		}
		out := slots[:0]
		for _, nt := range slots {
			if nt != nil {
				out = append(out, nt)
			}
		}
		if len(out) > 0 {
			return out, nil
		}
	}
}

// nextPending pulls the child's next batch and evaluates it to pending
// masses only, building nothing: the input batch (nil when exhausted) and
// its masses, valid until the next call. The selection must be MassesFirst.
func (f *Filter) nextPending() ([]*core.Tuple, *core.Pending, error) {
	if err := f.ctx.Err(); err != nil {
		return nil, nil, err
	}
	in, err := f.child.Next()
	if err != nil || in == nil {
		return nil, nil, err
	}
	if err := f.sel.EvalPending(in, &f.pend); err != nil {
		return nil, nil, err
	}
	return in, &f.pend, nil
}

func (f *Filter) Close() error {
	f.close()
	return f.child.Close()
}

// ProbFilter applies a compiled probability-threshold selection (§III-E):
// tuples pass through unchanged, kept or dropped on their probability
// value.
type ProbFilter struct {
	base
	child Operator
	sel   *core.ProbSelection
	keep  []bool        // reused across Next calls
	vals  []float64     // reused across Next calls: the batch's probabilities
	out   []*core.Tuple // reused across Next calls
}

// NewProbFilter wraps child with a threshold kernel planned against its
// header.
func NewProbFilter(child Operator, sel *core.ProbSelection) *ProbFilter {
	return &ProbFilter{child: child, sel: sel}
}

func (f *ProbFilter) Header() *core.Table { return f.sel.Out() }

func (f *ProbFilter) Open(ctx context.Context) error {
	f.open(ctx)
	return f.child.Open(ctx)
}

func (f *ProbFilter) Next() ([]*core.Tuple, error) {
	for {
		if err := f.ctx.Err(); err != nil {
			return nil, err
		}
		in, err := f.child.Next()
		if err != nil {
			return nil, err
		}
		if in == nil {
			return nil, nil
		}
		if cap(f.keep) < len(in) {
			f.keep = make([]bool, len(in))
			f.vals = make([]float64, len(in))
		}
		keep := f.keep[:len(in)]
		if err := f.sel.KeepBatch(in, keep, f.vals[:len(in)]); err != nil {
			return nil, err
		}
		f.out = f.out[:0]
		for i, tup := range in {
			if keep[i] {
				f.out = append(f.out, tup)
			}
		}
		if len(f.out) > 0 {
			return f.out, nil
		}
	}
}

func (f *ProbFilter) Close() error {
	f.close()
	return f.child.Close()
}

// EquiJoin is the hash equi-join: Open drains the build (right) child into
// the kernel's hash index, then the probe (left) child streams through it.
// Pairs come out in the sequential nested-loop order: left tuples in stream
// order, each matched against the build tuples in their stream order.
type EquiJoin struct {
	base
	child, build Operator
	k            *core.EquiJoinKernel

	// pending[pos:] are the pairs built but not yet handed out.
	pending []*core.Tuple
	pos     int
	maxPend int  // high-water of pending, already charged
	done    bool // the probe child is exhausted
}

// NewEquiJoin joins the probe child with the build child through a kernel
// planned against their two headers.
func NewEquiJoin(child, build Operator, k *core.EquiJoinKernel) *EquiJoin {
	return &EquiJoin{child: child, build: build, k: k}
}

func (j *EquiJoin) Header() *core.Table { return j.k.Out() }

func (j *EquiJoin) Open(ctx context.Context) error {
	j.open(ctx)
	if err := drainInto(ctx, j.build, func(b []*core.Tuple) error {
		j.k.Build(b)
		return nil
	}); err != nil {
		return err
	}
	// The hash index is query working set from here on.
	if err := j.charge(j.k.BuildSize()); err != nil {
		return err
	}
	return j.child.Open(ctx)
}

// Next hands out up to BatchSize pairs, pulling probe batches until that
// many are pending: a selective filter under the join leaves a few pairs per
// input batch, and the kernels downstream (a cross floor per pair) only
// spread a batch over workers when it is morsel-sized.
func (j *EquiJoin) Next() ([]*core.Tuple, error) {
	for len(j.pending)-j.pos < BatchSize && !j.done {
		if err := j.ctx.Err(); err != nil {
			return nil, err
		}
		in, err := j.child.Next()
		if err != nil {
			return nil, err
		}
		if in == nil {
			j.done = true
			break
		}
		// The batch handed out last time is dead by now: reuse its space.
		j.pending = j.pending[:copy(j.pending, j.pending[j.pos:])]
		j.pos = 0
		for _, a := range in {
			j.pending = j.k.AppendMatches(j.pending, a)
		}
		// A skewed key can explode one input batch into a huge pending
		// buffer; charge its high-water mark.
		if n := len(j.pending); n > j.maxPend {
			if err := j.charge(int64(n-j.maxPend) * j.k.Out().TupleCost()); err != nil {
				return nil, err
			}
			j.maxPend = n
		}
	}
	if j.pos == len(j.pending) {
		return nil, nil
	}
	end := min(j.pos+BatchSize, len(j.pending))
	out := j.pending[j.pos:end]
	j.pos = end
	return out, nil
}

func (j *EquiJoin) Close() error {
	j.close()
	return closeBoth(j.child, j.build)
}

// CrossJoin streams the left child against the materialized output of the
// right child, emitting pairs in nested-loop order. Used for FROM lists with
// no usable equi-join key; the right side is small or the query was going to
// be quadratic anyway.
type CrossJoin struct {
	base
	child, build Operator
	k            *core.CrossKernel
	right        []*core.Tuple

	cur []*core.Tuple // current left batch
	li  int           // index into cur
	ri  int           // index into right
}

// NewCrossJoin crosses the left child with the right (build) child through a
// kernel planned against their two headers.
func NewCrossJoin(child, build Operator, k *core.CrossKernel) *CrossJoin {
	return &CrossJoin{child: child, build: build, k: k}
}

func (j *CrossJoin) Header() *core.Table { return j.k.Out() }

func (j *CrossJoin) Open(ctx context.Context) error {
	j.open(ctx)
	cost := j.k.Out().TupleCost()
	if err := drainInto(ctx, j.build, func(b []*core.Tuple) error {
		j.right = append(j.right, b...)
		return j.charge(int64(len(b)) * cost)
	}); err != nil {
		return err
	}
	return j.child.Open(ctx)
}

func (j *CrossJoin) Next() ([]*core.Tuple, error) {
	if len(j.right) == 0 {
		return nil, nil
	}
	var out []*core.Tuple
	for len(out) < BatchSize {
		if err := j.ctx.Err(); err != nil {
			return nil, err
		}
		if j.li >= len(j.cur) {
			in, err := j.child.Next()
			if err != nil {
				return nil, err
			}
			if in == nil {
				break
			}
			j.cur, j.li, j.ri = in, 0, 0
		}
		a := j.cur[j.li]
		for j.ri < len(j.right) && len(out) < BatchSize {
			out = append(out, j.k.Pair(a, j.right[j.ri]))
			j.ri++
		}
		if j.ri >= len(j.right) {
			j.li++
			j.ri = 0
		}
	}
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

func (j *CrossJoin) Close() error {
	j.close()
	return closeBoth(j.child, j.build)
}

// drainInto opens a join's build child and feeds every batch it produces to
// add. The child stays open — its batches may alias its table — until the
// join closes it.
func drainInto(ctx context.Context, build Operator, add func([]*core.Tuple) error) error {
	if err := build.Open(ctx); err != nil {
		return err
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		b, err := build.Next()
		if err != nil || b == nil {
			return err
		}
		if err := add(b); err != nil {
			return err
		}
	}
}

// closeBoth closes a join's two children and returns the first error.
func closeBoth(child, build Operator) error {
	err := child.Close()
	if berr := build.Close(); err == nil {
		err = berr
	}
	return err
}

// Limit passes through at most n tuples and then stops pulling its child —
// the early termination a pipelined executor buys for LIMIT queries.
type Limit struct {
	base
	child Operator
	n     int
	done  bool
}

// NewLimit caps the stream at n tuples.
func NewLimit(child Operator, n int) *Limit {
	return &Limit{child: child, n: n}
}

func (l *Limit) Header() *core.Table { return l.child.Header() }

func (l *Limit) Open(ctx context.Context) error {
	l.open(ctx)
	return l.child.Open(ctx)
}

func (l *Limit) Next() ([]*core.Tuple, error) {
	if l.done || l.n <= 0 {
		return nil, nil
	}
	in, err := l.child.Next()
	if err != nil {
		return nil, err
	}
	if in == nil {
		l.done = true
		return nil, nil
	}
	if len(in) >= l.n {
		if len(in) > l.n {
			// The rest of the batch is dropped: copy the kept rows out of
			// their batch's slabs, which would keep it all alive.
			in = core.Detach(in[:l.n])
		}
		l.done = true
	}
	l.n -= len(in)
	return in, nil
}

func (l *Limit) Close() error {
	l.close()
	return l.child.Close()
}

// buffered is the output half of a pipeline breaker: the tuples its Open
// produced, handed out one batch per Next.
type buffered struct {
	out []*core.Tuple
	pos int
}

func (b *buffered) Next() ([]*core.Tuple, error) {
	if b.pos >= len(b.out) {
		return nil, nil
	}
	end := min(b.pos+BatchSize, len(b.out))
	batch := b.out[b.pos:end]
	b.pos = end
	return batch, nil
}

// keyed is a buffered tuple with its ORDER BY key, extracted once on
// arrival, and its arrival number, so ties under the key resolve to arrival
// order — exactly what a stable sort of the full input would produce.
type keyed struct {
	key core.OrderKey
	tup *core.Tuple
	seq int
}

// keyedBytes is what one keyed entry adds to a buffered tuple's budget
// charge: the key, the tuple reference and the arrival number.
const keyedBytes = 48

// ordering is the ORDER BY both breakers share: key extracts a tuple's key
// (ORDER BY PROB(col) computes the probability here, failing the query on
// the first bad tuple) and desc flips the direction; NULL keys sort last in
// both.
type ordering struct {
	key  func(*core.Tuple) (core.OrderKey, error)
	desc bool
}

// before is the strict total order: the keys first, arrival as the tiebreak.
func (o ordering) before(a, b *keyed) bool {
	if a.key.Before(b.key, o.desc) {
		return true
	}
	if b.key.Before(a.key, o.desc) {
		return false
	}
	return a.seq < b.seq
}

// sorted orders the entries and returns their tuples.
func (o ordering) sorted(es []keyed) []*core.Tuple {
	sort.Slice(es, func(i, j int) bool { return o.before(&es[i], &es[j]) })
	out := make([]*core.Tuple, len(es))
	for i := range es {
		out[i] = es[i].tup
	}
	return out
}

// TopK is the bounded-heap ORDER BY ... LIMIT k operator: a pipeline
// breaker that drains its child holding only the k best tuples seen, then
// emits them in order. The output equals a stable full sort followed by
// Head(k), tuple for tuple.
//
// Ordered by PROB(cols) or by a certain column directly above a Filter
// whose batches evaluate to pending masses, it ranks the input rows before
// any is built — on those masses (the key is the product Table.Prob takes),
// or on the column's cached value lane — with only surviving rows counting
// as arrivals, and the selection builds just the k rows left in the heap
// once the input is drained.
type TopK struct {
	base
	ordering
	buffered
	child Operator
	k     int
	// probCols are the PROB(...) arguments when the order is by
	// probability (NewProbTopK), nil otherwise.
	probCols []string
	// col is the certain-value offset (Table.CertainOffset) of the column
	// the order is by
	// (NewColumnTopK), -1 otherwise.
	col int

	// h is a max-heap under before: the root is the worst of the k best,
	// the one a better arrival evicts.
	h []keyed
}

// NewTopK wraps child with a bounded top-k heap ordered by key.
func NewTopK(child Operator, k int, key func(*core.Tuple) (core.OrderKey, error), desc bool) *TopK {
	return &TopK{child: child, k: k, col: -1, ordering: ordering{key: key, desc: desc}}
}

// NewColumnTopK wraps child with a bounded top-k heap ordered by the certain
// column at certain-value offset col (Table.CertainOffset).
func NewColumnTopK(child Operator, k, col int, desc bool) *TopK {
	t := NewTopK(child, k, ColumnKey(col), desc)
	t.col = col
	return t
}

// ColumnKey is the ORDER BY key of the certain column at certain-value
// offset col (Table.CertainOffset).
func ColumnKey(col int) func(*core.Tuple) (core.OrderKey, error) {
	return func(tup *core.Tuple) (core.OrderKey, error) { return tup.OrderKey(col), nil }
}

// NewProbTopK wraps child with a bounded top-k heap ordered by PROB(cols).
func NewProbTopK(child Operator, k int, cols []string, desc bool) *TopK {
	t := NewTopK(child, k, ProbKey(child.Header(), cols), desc)
	t.probCols = cols
	return t
}

// ProbKey is the ORDER BY PROB(cols) key over rows of hdr's shape: the
// row's Pr(cols), computed once per arriving row; an unknown column fails
// the query on the first row.
func ProbKey(hdr *core.Table, cols []string) func(*core.Tuple) (core.OrderKey, error) {
	return func(tup *core.Tuple) (core.OrderKey, error) {
		p, err := hdr.Prob(tup, cols...)
		return core.FloatKey(p), err
	}
}

// down restores the heap below a replaced root.
func (t *TopK) down() {
	h, i := t.h, 0
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && t.before(&h[c], &h[r]) {
			c = r
		}
		if !t.before(&h[i], &h[c]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

func (t *TopK) Header() *core.Table { return t.child.Header() }

func (t *TopK) Open(ctx context.Context) error {
	t.open(ctx)
	if err := t.child.Open(ctx); err != nil {
		return err
	}
	if t.k <= 0 {
		return nil // LIMIT 0: like Limit, never pull the child
	}
	cost := t.child.Header().TupleCost() + keyedBytes
	if f, ok := t.child.(*Filter); ok && f.sel.MassesFirst() {
		if t.col >= 0 {
			return t.openPending(f, nil, cost)
		}
		if t.probCols != nil {
			if deps, err := f.sel.Out().ProbDeps(t.probCols...); err == nil {
				return t.openPending(f, deps, cost)
			}
		}
	}
	seq := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		in, err := t.child.Next()
		if err != nil {
			return err
		}
		if in == nil {
			break
		}
		for _, tup := range in {
			key, err := t.key(tup)
			if err != nil {
				return err
			}
			seq++
			if err := t.offer(keyed{key: key, tup: tup, seq: seq}, cost); err != nil {
				return err
			}
		}
	}
	// The heap's rows come from up to k batches: copy them out of their
	// batches' slabs, which would keep every other row of them alive.
	t.out = core.Detach(t.sorted(t.h))
	t.h = nil
	return nil
}

// openPending drains a Filter by pending masses: the heap holds input rows
// keyed by the order column's value — read from the batch's value lane, or
// through Tuple.OrderKey for a row outside it or a batch without one — or,
// ordered by probability, by the mass product over deps (Table.Prob's order,
// from 1). The selection builds only the k rows left in it.
func (t *TopK) openPending(f *Filter, deps []int, cost int64) error {
	seq := 0
	// Once the heap is full with a number at its root, a lane value enters
	// only by beating bound (offer's test, on floats).
	var bound float64
	bounded := false
	for {
		in, pend, err := f.nextPending()
		if err != nil {
			return err
		}
		if in == nil {
			break
		}
		var lane *colpdf.Lane
		if t.col >= 0 {
			lane = pend.Lane(t.col, in)
		}
		for i, tup := range in {
			if !pend.Kept(i) {
				continue
			}
			seq++
			var key core.OrderKey
			switch {
			case t.col < 0:
				p := 1.0
				for _, di := range deps {
					p *= pend.Mass(di, i)
				}
				key = core.FloatKey(p)
			case lane != nil && lane.Num[i]:
				v := lane.Vals[i]
				if bounded && !(t.desc && v > bound || !t.desc && v < bound) {
					continue
				}
				key = core.FloatKey(v)
			default:
				key = tup.OrderKey(t.col)
			}
			if err := t.offer(keyed{key: key, tup: tup, seq: seq}, cost); err != nil {
				return err
			}
			if len(t.h) == t.k {
				bound, bounded = t.h[0].key.Number()
			}
		}
	}
	for i := range t.h {
		nt, err := f.sel.Eval(t.h[i].tup)
		if err != nil {
			return err
		}
		if nt == nil {
			return fmt.Errorf("pipe: internal: a pending survivor of %s did not survive", f.sel.Out().Name)
		}
		t.h[i].tup = nt
	}
	t.out = t.sorted(t.h)
	t.h = nil
	return nil
}

// offer puts one arrival to the heap. A full heap rejects on one key
// comparison: the arrival is the latest so far, so it evicts the root only
// with a strictly better key. The heap is bounded by k, but k itself can be
// huge: each slot is charged as it first fills (replacement reuses the
// slot, no new charge).
func (t *TopK) offer(e keyed, cost int64) error {
	if len(t.h) == t.k {
		if e.key.Before(t.h[0].key, t.desc) {
			t.h[0] = e
			t.down()
		}
		return nil
	}
	if err := t.charge(cost); err != nil {
		return err
	}
	t.h = append(t.h, e)
	for i := len(t.h) - 1; i > 0; {
		p := (i - 1) / 2
		if !t.before(&t.h[p], &t.h[i]) {
			break
		}
		t.h[p], t.h[i] = t.h[i], t.h[p]
		i = p
	}
	return nil
}

func (t *TopK) Close() error {
	t.close()
	return t.child.Close()
}

// Sort is the unbounded ORDER BY breaker: it drains its child and sorts the
// whole input by key, ties in arrival order, reproducing Table.Sorted.
type Sort struct {
	base
	ordering
	buffered
	child Operator
}

// NewSort wraps child with a full sort ordered by key.
func NewSort(child Operator, key func(*core.Tuple) (core.OrderKey, error), desc bool) *Sort {
	return &Sort{child: child, ordering: ordering{key: key, desc: desc}}
}

func (s *Sort) Header() *core.Table { return s.child.Header() }

func (s *Sort) Open(ctx context.Context) error {
	s.open(ctx)
	if err := s.child.Open(ctx); err != nil {
		return err
	}
	// The unbounded buffer this breaker accumulates is the single biggest
	// OOM risk in the executor: charge it batch by batch so a sort that
	// outgrows its query budget dies alone, before it can take down the
	// process.
	cost := s.child.Header().TupleCost() + keyedBytes
	var es []keyed
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		in, err := s.child.Next()
		if err != nil {
			return err
		}
		if in == nil {
			break
		}
		if err := s.charge(int64(len(in)) * cost); err != nil {
			return err
		}
		for _, tup := range in {
			key, err := s.key(tup)
			if err != nil {
				return err
			}
			es = append(es, keyed{key: key, tup: tup, seq: len(es)})
		}
	}
	s.out = s.sorted(es)
	return nil
}

func (s *Sort) Close() error {
	s.close()
	return s.child.Close()
}

// Project applies a compiled projection kernel batch by batch: one output
// batch per input batch, built into a buffer reused across Next calls. Run
// refills the batches a selective filter below it thinned out. It holds one
// batch of row pointers, so it charges no budget.
type Project struct {
	base
	child Operator
	k     *core.Projection
	out   []*core.Tuple // reused across Next calls
}

// NewProject wraps child with a projection kernel planned against its
// header.
func NewProject(child Operator, k *core.Projection) *Project {
	return &Project{child: child, k: k}
}

func (p *Project) Header() *core.Table { return p.k.Out() }

func (p *Project) Open(ctx context.Context) error {
	p.open(ctx)
	return p.child.Open(ctx)
}

func (p *Project) Next() ([]*core.Tuple, error) {
	in, err := p.child.Next()
	if err != nil || in == nil {
		return nil, err
	}
	p.out = p.k.AppendBatch(p.out[:0], in)
	return p.out, nil
}

func (p *Project) Close() error {
	p.close()
	return p.child.Close()
}

// Run opens the tree, pulls it to exhaustion, and calls emit for every
// batch. It is the one place batches are filled: every batch it emits holds
// exactly BatchSize tuples except the last, so a shorter batch — or the nil
// batch an empty result emits, so that sinks always learn the header — is
// known to end the stream, and a sink may hold it for its terminal frame.
// A full batch is emitted before the tree is pulled again, so a slow scan
// streams as it produces. An emitted batch is valid only for the duration
// of the call. The tree is closed on every path, including cancellation
// and emit errors.
func Run(ctx context.Context, root Operator, emit func(hdr *core.Table, batch []*core.Tuple) error) error {
	if err := root.Open(ctx); err != nil {
		root.Close()
		return err
	}
	defer root.Close()
	hdr := root.Header()
	emitted := false
	// pend is a short batch not yet emitted, copied into Run's own buffer:
	// a child's batch dies at the next pull (a Filter reuses its slots).
	var pend []*core.Tuple
	for {
		b, err := root.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		for len(b) > 0 {
			if len(pend) == 0 && len(b) >= BatchSize {
				// A full child batch passes straight through.
				emitted = true
				if err := emit(hdr, b[:BatchSize]); err != nil {
					return err
				}
				b = b[BatchSize:]
				continue
			}
			n := min(BatchSize-len(pend), len(b))
			pend = append(pend, b[:n]...)
			b = b[n:]
			if len(pend) == BatchSize {
				emitted = true
				if err := emit(hdr, pend); err != nil {
					return err
				}
				pend = pend[:0]
			}
		}
	}
	if len(pend) > 0 || !emitted {
		return emit(hdr, pend) // nil when the result is empty
	}
	return nil
}

// Drain runs the tree and materializes its output as a table
// (core.Table.View): Exec's Result, an aggregate's input, EXPLAIN's rows.
func Drain(ctx context.Context, root Operator) (*core.Table, error) {
	var hdr *core.Table
	var tups []*core.Tuple
	err := Run(ctx, root, func(h *core.Table, b []*core.Tuple) error {
		hdr = h
		tups = append(tups, b...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return hdr.View(hdr.Name, tups), nil
}
