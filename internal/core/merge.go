package core

import (
	"fmt"

	"probdb/internal/dist"
)

// varRef identifies a random variable: one dimension of one base pdf. Two
// pdf dimensions are the same variable exactly when their varRefs are equal;
// this is what lets two projections of the same base tuple recognize that
// "their" a and b are the same a and b when they meet again in a join
// (Fig. 3). The pointer is also what keeps the base pdf alive for the
// dependent-product reconstruction, however long ago its tuple was deleted.
type varRef struct {
	base *baseRecord
	dim  int
}

// mergePlan is the table-level structure of a dependency-set merge produced
// by the closure Ω: which dependency sets fuse, which certain columns are
// promoted to uncertain, and the target attribute order of the resulting
// joint. Phantom attributes of the fusing sets participate in the merge —
// their floors are propagated — but are marginalized out of the result, so
// the merged set lists only visible and promoted attributes.
type mergePlan struct {
	setIdxs  []int // indexes into Table.deps, ascending
	promoted []int // visible column indexes of promoted certain attributes
	merged   *depSet
	// targetDims[i] locates merged attribute i within its source dependency
	// set: which of plan.setIdxs (or -1 for promoted) and which dim.
	srcSet []int
	srcDim []int
}

// planMerge builds the merged dependency set: the visible attributes of the
// fusing sets (in set order), followed by the promoted certain attributes.
func (t *Table) planMerge(setIdxs, promoted []int) (*mergePlan, error) {
	p := &mergePlan{setIdxs: setIdxs, promoted: promoted, merged: &depSet{}}
	for i, si := range setIdxs {
		d := t.deps[si]
		for dim, id := range d.ids {
			if !t.visibleID(id) {
				continue // phantom: participates, then marginalized away
			}
			p.merged.ids = append(p.merged.ids, id)
			p.merged.names = append(p.merged.names, d.names[dim])
			p.merged.types = append(p.merged.types, d.types[dim])
			p.srcSet = append(p.srcSet, i)
			p.srcDim = append(p.srcDim, dim)
		}
	}
	for _, ci := range promoted {
		col := t.schema.Columns()[ci]
		if !col.Type.Numeric() {
			return nil, fmt.Errorf("core: cannot merge non-numeric certain column %q into a joint pdf", col.Name)
		}
		p.merged.ids = append(p.merged.ids, t.ids[ci])
		p.merged.names = append(p.merged.names, col.Name)
		p.merged.types = append(p.merged.types, col.Type)
		p.srcSet = append(p.srcSet, -1)
		p.srcDim = append(p.srcDim, len(p.srcDim))
	}
	if len(p.merged.ids) == 0 {
		return nil, fmt.Errorf("core: merge produces no visible attributes")
	}
	return p, nil
}

// mergeTupleNodes implements the paper's product operation (§III-A) for one
// tuple: the joint pdf over the variables of the plan's dependency sets.
//
// Historically independent inputs multiply directly and stay factored.
// Historically dependent inputs are reconstructed from their base ancestors
// — the joint is the product of the (marginalized) base pdfs with the floors
// of each input propagated on top, which is the paper's
//
//	f(x_S') = 0 where f1 or f2 is 0, else f(x_D1)·f(x_D2)·∏j f(x_Cj).
//
// Inputs that share variables outright (two projections of the same base
// joint, as in Fig. 3) contribute each shared variable once; every input's
// floors still apply. Promoted certain attributes enter as the identity pdf
// f0 (§III-C case 2(b)) as fresh base pdfs, which live as long as the node.
// Finally the joint is marginalized onto the plan's target attributes,
// dropping the
// phantom dimensions whose floors have just been folded in.
func (t *Table) mergeTupleNodes(plan *mergePlan, tup *Tuple) (*PDFNode, error) {
	nodes := make([]*PDFNode, len(plan.setIdxs))
	for i, si := range plan.setIdxs {
		nodes[i] = tup.nodes[si]
	}
	promotedVals := make([]float64, len(plan.promoted))
	for i, ci := range plan.promoted {
		v := tup.certain[t.CertainOffset(ci)]
		f, ok := v.AsFloat()
		if !ok {
			return nil, fmt.Errorf("core: cannot merge NULL/non-numeric value of column %q into a joint pdf",
				t.schema.Columns()[ci].Name)
		}
		promotedVals[i] = f
	}

	dependent := false
	if t.trackHistory {
		for i := 0; i < len(nodes) && !dependent; i++ {
			for j := i + 1; j < len(nodes); j++ {
				if nodes[i].Anc.Dependent(nodes[j].Anc) {
					dependent = true
					break
				}
			}
		}
	}

	var joint dist.Dist
	var vars []varRef
	var anc AncestorSet
	var err error
	if dependent {
		joint, vars, anc, err = t.buildDependent(nodes)
	} else {
		joint, vars, anc = t.buildIndependent(nodes)
	}
	if err != nil {
		return nil, err
	}

	// Promoted certain attributes: identity pdf f0, fresh base.
	if len(promotedVals) > 0 {
		unit := dist.Unit(promotedVals...)
		joint = dist.ProductOf(joint, unit)
		var rec *baseRecord
		if t.trackHistory {
			rec = t.reg.newBase(unit)
			anc = anc.Union(AncestorSet{rec.id})
		}
		for i := range promotedVals {
			vars = append(vars, varRef{base: rec, dim: i})
		}
	}

	// Locate each target attribute's variable in the joint and marginalize
	// phantom dimensions away.
	keep := make([]int, len(plan.merged.ids))
	outVars := make([]varRef, len(plan.merged.ids))
	for i := range plan.merged.ids {
		var v varRef
		if plan.srcSet[i] < 0 {
			// Promoted attribute: its unit dims sit at the tail of vars.
			v = vars[len(vars)-len(promotedVals)+(i-(len(plan.merged.ids)-len(promotedVals)))]
		} else {
			node := nodes[plan.srcSet[i]]
			v = node.vars[plan.srcDim[i]]
		}
		dim := indexOfVar(vars, v)
		if dim < 0 {
			return nil, fmt.Errorf("core: internal: variable %+v missing from merged joint", v)
		}
		keep[i] = dim
		outVars[i] = v
	}
	if !isIdentity(keep) || len(keep) != joint.Dim() {
		joint = joint.Marginal(keep)
	}
	if !t.trackHistory {
		anc = nil
	}
	return &PDFNode{Dist: joint, Anc: anc, vars: outVars}, nil
}

// buildIndependent multiplies pdfs with no shared history. The factored
// product preserves symbolic representations.
func (t *Table) buildIndependent(nodes []*PDFNode) (dist.Dist, []varRef, AncestorSet) {
	factors := make([]dist.Dist, 0, len(nodes))
	var vars []varRef
	anc := AncestorSet{}
	for _, n := range nodes {
		factors = append(factors, n.Dist)
		vars = append(vars, n.vars...)
		anc = anc.Union(n.Anc)
	}
	return dist.ProductOf(factors...), vars, anc
}

// buildDependent reconstructs the joint of historically dependent inputs
// from their base ancestors and re-applies every input's floors.
func (t *Table) buildDependent(nodes []*PDFNode) (dist.Dist, []varRef, AncestorSet, error) {
	anc := AncestorSet{}
	for _, n := range nodes {
		anc = anc.Union(n.Anc)
	}
	// The variables of the result: union (dedup) of the inputs' variables,
	// first occurrence order.
	var allVars []varRef
	for _, n := range nodes {
		for _, v := range n.vars {
			if indexOfVar(allVars, v) < 0 {
				allVars = append(allVars, v)
			}
		}
	}

	// Base reconstruction: one factor per ancestor that still contributes
	// variables, in ancestor order, marginalized onto the needed dimensions.
	// Ancestors whose variables were all dropped by earlier merges influence
	// the result only through the inputs' floors below, which is why nothing
	// needs to keep their base pdfs.
	var factors []dist.Dist
	var vars []varRef
	for _, aid := range anc {
		rec := recordOf(allVars, aid)
		if rec == nil {
			continue
		}
		base := rec.d
		var keepDims []int
		for dim := 0; dim < base.Dim(); dim++ {
			if indexOfVar(allVars, varRef{base: rec, dim: dim}) >= 0 {
				keepDims = append(keepDims, dim)
			}
		}
		f := base
		if len(keepDims) != base.Dim() {
			f = base.Marginal(keepDims)
		}
		factors = append(factors, f)
		for _, dim := range keepDims {
			vars = append(vars, varRef{base: rec, dim: dim})
		}
	}
	if len(vars) != len(allVars) {
		return nil, nil, nil, fmt.Errorf("core: internal: reconstructed %d of %d variables", len(vars), len(allVars))
	}
	joint := dist.ProductOf(factors...)

	// Propagate each input's floors: zero the joint wherever an input pdf
	// is zero (the regions whose possible worlds "did not survive" earlier
	// selections). Pristine nodes are exactly their base pdfs — no floors.
	for _, n := range nodes {
		if n.pristine {
			continue
		}
		dims := make([]int, len(n.vars))
		for i, v := range n.vars {
			dims[i] = indexOfVar(vars, v)
		}
		joint = floorByNodeSupport(joint, n, dims)
	}
	return joint, vars, anc, nil
}

// floorByNodeSupport zeroes the joint outside the support of the node's
// distribution along the given dimensions. For 1-D symbolically floored
// inputs the floor is applied as an exact rectangular region; otherwise the
// support indicator is evaluated pointwise.
func floorByNodeSupport(joint dist.Dist, n *PDFNode, dims []int) dist.Dist {
	if fl, ok := n.Dist.(dist.Floored); ok && len(dims) == 1 {
		return joint.Floor(dims[0], fl.Keep())
	}
	sub := make([]float64, len(dims))
	return joint.FloorWhere(func(x []float64) bool {
		for k, d := range dims {
			sub[k] = x[d]
		}
		return n.Dist.At(sub) > 0
	})
}

// recordOf returns the base record of ancestor id among vars' variables, or
// nil when none of them is one of its dimensions.
func recordOf(vars []varRef, id NodeID) *baseRecord {
	for _, v := range vars {
		if v.base != nil && v.base.id == id {
			return v.base
		}
	}
	return nil
}

func indexOfVar(vars []varRef, v varRef) int {
	for i, w := range vars {
		if w == v {
			return i
		}
	}
	return -1
}

func isIdentity(perm []int) bool {
	for i, p := range perm {
		if p != i {
			return false
		}
	}
	return true
}
