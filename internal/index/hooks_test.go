package index

import "slices"

// Test-only views of an index's internals.

// Candidates returns the RIDs whose support intervals overlap [lo, hi],
// without probability filtering.
func (ix *Index) Candidates(lo, hi float64) []int64 {
	var out []int64
	var st Stats
	collect := func(e *entry) { out = append(out, e.rid) }
	ix.walk(0, len(ix.entries), lo, hi, collect, &st)
	ix.scanOverflow(lo, hi, collect, &st)
	slices.Sort(out)
	return out
}

// Fragmentation reports the index's incremental debris: entries awaiting a
// fold into the tree and tombstoned slots awaiting reclamation.
func (ix *Index) Fragmentation() (overflow, dead int) {
	return len(ix.overflow), len(ix.dead)
}
