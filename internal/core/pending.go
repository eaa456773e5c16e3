package core

import (
	"probdb/internal/colpdf"
	"probdb/internal/dist"
	"probdb/internal/exec"
)

// This file is the batch body of a selection made of certain filters and
// floors (Selection.MassesFirst): probabilities before tuples. A floor stays
// symbolic (§III-A), so the probability it leaves is one CDF of the unfloored
// pdf over the kept region, and a batch is first evaluated to pending masses
// — which rows survive and, per dependency set, the mass its pdf keeps —
// without building a floored pdf, a node or a tuple. Consumers that read
// only masses (ORDER BY PROB … LIMIT k in internal/pipe) rank on them and
// build only the rows they keep; everything else builds the survivors of
// each batch in slabs.

// Pending is one batch evaluated to pending masses. It is the caller's
// scratch, reused across batches; its contents are valid until the next
// evaluation into it.
type Pending struct {
	keep []bool
	mass [][]float64 // per output dependency set, per row (valid where keep)
	pos  []bool      // per set: every mass of the batch is known > 0
	rows []int       // rows whose mass dist.FloorMass computes
	idx  []int       // survivor positions, for build
	// src and slot locate the batch in its base table (slot nil: not a
	// slice of one), for Lane.
	src  *Table
	slot encSlot
}

// Kept reports whether row i of the batch survives the selection.
func (p *Pending) Kept(i int) bool { return p.keep[i] }

// Mass returns the mass row i's pdf of output dependency set dep keeps
// after the floors: the Dist.Mass() of the node Eval would build.
func (p *Pending) Mass(dep, i int) float64 { return p.mass[dep][i] }

// Lane returns the value lane of the certain column at certain-value offset
// col over the batch in last evaluated into p, or nil when the column is not
// numeric or the batch has no slot — it is no slice of a base table or of a
// transaction overlay (an index probe's candidates, a derived table). Only a
// base table has slots, and there the offset is the schema position.
func (p *Pending) Lane(col int, in []*Tuple) *colpdf.Lane {
	if p.slot == nil || !p.src.schema.Columns()[col].Type.Numeric() {
		return nil
	}
	return p.src.certainLane(col, p.slot, in)
}

func (p *Pending) reset(n, deps int) {
	if cap(p.keep) < n {
		p.keep = make([]bool, n)
	}
	p.keep = p.keep[:n]
	if cap(p.pos) < deps {
		p.pos = make([]bool, deps)
	}
	p.pos = p.pos[:deps]
	if len(p.mass) < deps {
		p.mass = make([][]float64, deps)
	}
	for di := range p.mass[:deps] {
		if cap(p.mass[di]) < n {
			p.mass[di] = make([]float64, n)
		}
		p.mass[di] = p.mass[di][:n]
	}
}

// EvalPending evaluates one streamed batch to pending masses into p. The
// selection must be MassesFirst.
func (s *Selection) EvalPending(in []*Tuple, p *Pending) error {
	return s.evalPendingAt(in, s.in.slotOf(&s.cursor, in), p)
}

// evalPendingAt evaluates a batch of the input table whose slot is slot
// (nil: no slot). The certain filters of a batch with a slot read its value
// lanes (certainLanes); otherwise they run inline, per row. A set with no
// floor reads the mass lane of its block, and skips the final
// positive-mass check when the block records its masses all positive. A set
// with one single-interval floor reads the block's lanes — the closed-form
// families (colpdf's transcription of the CDF difference newFloored sums)
// and the discrete ones (the Kahan sum Discrete.floorMass takes over the
// kept points) — and sends grid and fallback runs through dist.FloorMass.
// Several floors on one set, a keep region of several intervals, and a
// batch with no slot (an index probe's candidates, a derived table) go
// through dist.FloorMass per row, after building all but the set's last
// floor. A row survives when it passes the certain
// filters and every set keeps positive mass, exactly when Eval returns a
// tuple.
func (s *Selection) evalPendingAt(in []*Tuple, slot encSlot, p *Pending) error {
	n := len(in)
	t := s.in
	p.reset(n, len(t.deps))
	p.src, p.slot = t, slot
	if slot != nil && s.laneFilters {
		s.certainLanes(in, slot, p.keep)
	} else {
		for i, tup := range in {
			p.keep[i] = true
			for ci := range s.certain {
				if !s.certain[ci].eval(tup) {
					p.keep[i] = false
					break
				}
			}
		}
	}
	if len(t.deps) == 0 {
		s.stats.vec.Add(uint64(n))
	}
	for di := range t.deps {
		m := p.mass[di]
		fl := s.depFloors[di]
		p.rows = p.rows[:0]
		p.pos[di] = false
		switch {
		case len(fl) == 0 && slot != nil:
			b := t.colBlockFor(di, 0, slot, in)
			copy(m, b.Mass()[:n])
			p.pos[di] = b.MassPositive()
			s.stats.note(b.Stats(), true)
		case len(fl) == 0:
			for i, tup := range in {
				m[i] = tup.nodes[di].Dist.Mass()
			}
			s.stats.vec.Add(uint64(n))
		case len(fl) == 1 && slot != nil && len(s.floors[fl[0]].keep.Intervals()) == 1:
			f := s.floors[fl[0]]
			b := t.colBlockFor(di, f.dim, slot, in)
			iv := f.keep.Intervals()[0]
			for r := 0; r < b.NumRuns(); r++ {
				run := b.RunAt(r)
				switch run.Fam {
				case colpdf.FamGaussian, colpdf.FamUniform, colpdf.FamExponential,
					colpdf.FamDiscrete, colpdf.FamPoisson, colpdf.FamGeometric:
					b.EvalIntervalRun(r, iv, m)
				default:
					p.keptRows(run.Start, run.Start+run.N)
				}
			}
			if err := s.floorMasses(in, p, di); err != nil {
				return err
			}
			rs := b.Stats()
			s.stats.note(colpdf.RangeStats{Vec: n - len(p.rows), Fallback: len(p.rows), Runs: rs.Runs, FamMask: rs.FamMask}, false)
		default:
			p.keptRows(0, n)
			if err := s.floorMasses(in, p, di); err != nil {
				return err
			}
			s.stats.scalar.Add(uint64(n))
		}
	}
	for di := range t.deps {
		if p.pos[di] {
			continue
		}
		for i, m := range p.mass[di] {
			if m <= 0 {
				p.keep[i] = false
			}
		}
	}
	return nil
}

// certainLanes evaluates the certain filters of a batch with a slot into keep:
// each comparison over numeric operands as one loop over its columns' value
// lanes, the rows outside their numeric masks through the scalar eval, and
// the other comparisons per row. The filters are pure and conjunctive, so
// the order they narrow keep in does not matter.
func (s *Selection) certainLanes(in []*Tuple, slot encSlot, keep []bool) {
	t := s.in
	for i := range keep {
		keep[i] = true
	}
	for ci := range s.certain {
		c := &s.certain[ci]
		if !c.lanes {
			continue
		}
		var l, r *colpdf.Lane
		switch {
		case c.lcol >= 0 && c.rcol >= 0:
			l, r = t.certainLane(c.lcol, slot, in), t.certainLane(c.rcol, slot, in)
			l.KeepLane(c.op, r, keep)
		case c.lcol >= 0:
			l = t.certainLane(c.lcol, slot, in)
			f, _ := c.rlit.AsFloat()
			l.KeepConst(c.op, f, keep)
		default:
			l = t.certainLane(c.rcol, slot, in)
			f, _ := c.llit.AsFloat()
			l.KeepConst(c.op.Flip(), f, keep)
		}
		if l.AllNum && (r == nil || r.AllNum) {
			continue
		}
		for i, tup := range in {
			if keep[i] && !(l.Num[i] && (r == nil || r.Num[i])) {
				keep[i] = c.eval(tup)
			}
		}
	}
	for ci := range s.certain {
		c := &s.certain[ci]
		if c.lanes {
			continue
		}
		for i, tup := range in {
			if keep[i] && !c.eval(tup) {
				keep[i] = false
			}
		}
	}
}

// keptRows appends to p.rows the rows in [lo, hi) that pass the certain
// filters.
func (p *Pending) keptRows(lo, hi int) {
	for i := lo; i < hi; i++ {
		if p.keep[i] {
			p.rows = append(p.rows, i)
		}
	}
}

// floorMasses fills the pending mass of set di for the rows p.rows lists,
// through dist.FloorMass: the set's floors but the last are built (as Eval
// builds them, in written order), the last is not. Each row floors a pdf,
// so the loop runs in morsels; every row writes only its own mass.
func (s *Selection) floorMasses(in []*Tuple, p *Pending, di int) error {
	fl := s.depFloors[di]
	last := s.floors[fl[len(fl)-1]]
	m, rows := p.mass[di], p.rows
	if len(rows) == 0 {
		return nil
	}
	return exec.For(len(rows), func(a, b int) error {
		for _, i := range rows[a:b] {
			d := in[i].nodes[di].Dist
			for _, fi := range fl[:len(fl)-1] {
				d = d.Floor(s.floors[fi].dim, s.floors[fi].keep)
			}
			m[i] = dist.FloorMass(d, last.dim, last.keep)
		}
		return nil
	})
}

// build writes the survivors of a pending batch into slots (nil for the rows
// that drop). A selection with no floor changes no tuple, so its survivors
// are the input tuples themselves. Otherwise the batch's survivors are built
// exactly as Eval builds them — the same certain values, the input's nodes
// with each floored set's pdf floored in written order — out of three slabs
// per batch (their tuples, node pointers and floored nodes), so a batch costs
// three allocations plus one floored pdf per floored set per survivor. A
// slab lives as long as any of its rows: operators that keep a few rows of a
// batch past the batch (Limit, TopK) copy them out with Detach. The
// survivors are built in morsels, each into its own slab entries.
func (s *Selection) build(in []*Tuple, p *Pending, slots []*Tuple) error {
	p.idx = p.idx[:0]
	for i, tup := range in {
		slots[i] = nil
		if p.keep[i] {
			if len(s.floors) == 0 {
				slots[i] = tup
			}
			p.idx = append(p.idx, i)
		}
	}
	m := len(p.idx)
	if len(s.floors) == 0 || m == 0 {
		return nil
	}
	d, fd := len(s.out.deps), len(s.floorDeps)
	tups := make([]Tuple, m)
	ptrs := make([]*PDFNode, m*d)
	nodes := make([]PDFNode, m*fd)
	return exec.For(m, func(lo, hi int) error {
		for j := lo; j < hi; j++ {
			tup := in[p.idx[j]]
			np := ptrs[j*d : (j+1)*d : (j+1)*d]
			copy(np, tup.nodes)
			for k, di := range s.floorDeps {
				src := tup.nodes[di]
				pd := src.Dist
				if fl := s.depFloors[di]; len(fl) == 1 {
					// The pending mass is this floor's: build it around it.
					pd = dist.FloorWithMass(pd, s.floors[fl[0]].dim, s.floors[fl[0]].keep, p.mass[di][p.idx[j]])
				} else {
					for _, fi := range fl {
						pd = pd.Floor(s.floors[fi].dim, s.floors[fi].keep)
					}
				}
				nodes[j*fd+k] = PDFNode{Dist: pd, Anc: src.Anc, vars: src.vars}
				np[di] = &nodes[j*fd+k]
			}
			tups[j] = makeTuple(tup.certain, np)
			slots[p.idx[j]] = &tups[j]
		}
		return nil
	})
}

// Detach returns copies of tups that share no allocation with any tuple
// outside them: the same certain values and pdf nodes (node contents copied,
// pdfs shared), in four allocations for the lot. A tuple built in a batch
// slab keeps every row of that batch alive, so an operator that keeps a few
// rows of a batch past the batch detaches them, and the rest of the batch —
// with the base pdfs its rows reach — becomes garbage.
func Detach(tups []*Tuple) []*Tuple {
	d := 0
	for _, tup := range tups {
		d += len(tup.nodes)
	}
	ts := make([]Tuple, len(tups))
	ptrs := make([]*PDFNode, d)
	nodes := make([]PDFNode, d)
	out := make([]*Tuple, len(tups))
	k := 0
	for i, tup := range tups {
		np := ptrs[k : k+len(tup.nodes) : k+len(tup.nodes)]
		for j, n := range tup.nodes {
			nodes[k+j] = *n
			np[j] = &nodes[k+j]
		}
		k += len(tup.nodes)
		ts[i] = Tuple{certain: tup.certain, nodes: np, exists: tup.exists}
		out[i] = &ts[i]
	}
	return out
}
