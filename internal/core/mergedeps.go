package core

import "fmt"

// MergeDeps eagerly collapses the dependency sets containing the named
// uncertain attributes into a single joint pdf per tuple, using history to
// reconstruct correlations (§III-D: "we can, in principle, apply the
// algorithm explained in Section III-C to collapse the intra-tuple
// dependencies implied by Λ into Δ ... the decision of whether to merge the
// intra-tuple dependencies eagerly or lazily is left to the
// implementation"). Select performs the same merge lazily, only when a
// predicate forces it; MergeDeps is the eager alternative and the direct
// way to materialize the joint distributions of Fig. 3.
func (t *Table) MergeDeps(names ...string) (*Table, error) {
	if len(names) < 2 {
		return nil, fmt.Errorf("core: MergeDeps needs at least two attributes")
	}
	setIdx := map[int]bool{}
	for _, n := range names {
		col, ok := t.schema.Lookup(n)
		if !ok {
			return nil, fmt.Errorf("core: unknown column %q", n)
		}
		if !col.Uncertain {
			return nil, fmt.Errorf("core: MergeDeps of certain column %q (use Select to promote)", n)
		}
		setIdx[t.depOf(t.idOf(n))] = true
	}
	if len(setIdx) < 2 {
		// Already jointly distributed.
		return t, nil
	}
	var setIdxs []int
	for si := range setIdx {
		setIdxs = append(setIdxs, si)
	}
	sortInts(setIdxs)
	plan, err := t.planMerge(setIdxs, nil)
	if err != nil {
		return nil, err
	}

	out := t.shallowDerived(fmt.Sprintf("merge(%s)", t.Name))
	out.deps = nil
	oldToNew := make([]int, len(t.deps))
	for si, d := range t.deps {
		if setIdx[si] {
			oldToNew[si] = -1
			continue
		}
		oldToNew[si] = len(out.deps)
		out.deps = append(out.deps, d)
	}
	mergedAt := len(out.deps)
	out.deps = append(out.deps, plan.merged)

	for _, tup := range t.tuples {
		nodes := make([]*PDFNode, len(out.deps))
		for si := range t.deps {
			if oldToNew[si] >= 0 {
				nodes[oldToNew[si]] = tup.nodes[si]
			}
		}
		n, err := t.mergeTupleNodes(plan, tup)
		if err != nil {
			return nil, err
		}
		nodes[mergedAt] = n
		nt := makeTuple(tup.certain, nodes)
		out.tuples = append(out.tuples, &nt)
	}
	return out, nil
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
