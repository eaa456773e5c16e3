package dist

import (
	"probdb/internal/numeric"
	"probdb/internal/region"
)

// FloorMass returns d.Floor(dim, keep).Mass() without building the floored
// pdf: the probability a floor leaves, which is all a consumer that drops or
// ranks rows by mass needs (the floor stays symbolic, §III-A). It runs the
// same interval walk, Kahan summation and clamp as the built floor, so the
// two agree bit for bit, and it allocates nothing for the symbolic continuous
// and discrete families and their floors. Other families build the floor.
func FloorMass(d Dist, dim int, keep region.Set) float64 {
	switch v := d.(type) {
	case symCont:
		checkDim(dim, 1)
		if keep.IsFull() {
			return v.Mass()
		}
		var mass numeric.KahanSum
		for _, iv := range keep.Intervals() {
			mass.Add(intervalMassCont(v.m, iv))
		}
		return numeric.Clamp01(mass.Value())
	case Floored:
		checkDim(dim, 1)
		if v.keep.IsFull() && keep.IsFull() {
			return symCont{v.m}.Mass()
		}
		return keptMass(v.m, v.keep.Intervals(), keep.Intervals())
	case symDisc:
		return v.backing.floorMass(dim, keep)
	case *Discrete:
		return v.floorMass(dim, keep)
	}
	return d.Floor(dim, keep).Mass()
}

// FloorWithMass is d.Floor(dim, keep) for a caller that already holds
// mass = FloorMass(d, dim, keep): the floor of a symbolic continuous pdf is
// built around that mass rather than integrating it a second time. Other pdfs
// build their floor as Floor does.
func FloorWithMass(d Dist, dim int, keep region.Set, mass float64) Dist {
	if s, ok := d.(symCont); ok && !keep.IsFull() {
		checkDim(dim, 1)
		return Floored{m: s.m, keep: keep, mass: mass}
	}
	return d.Floor(dim, keep)
}

// keptMass is newFloored's mass over the region a ∩ b, visiting the
// intersection's intervals in the order region.Set.Intersect builds them.
func keptMass(m contModel, a, b []region.Interval) float64 {
	var mass numeric.KahanSum
	for i, j := 0, 0; i < len(a) && j < len(b); {
		if iv := a[i].Intersect(b[j]); !iv.Empty() {
			mass.Add(intervalMassCont(m, iv))
		}
		if a[i].Hi < b[j].Hi || (a[i].Hi == b[j].Hi && a[i].HiOpen && !b[j].HiOpen) {
			i++
		} else {
			j++
		}
	}
	return numeric.Clamp01(mass.Value())
}

// floorMass is the mass Floor's newDiscrete computes: the kept points are
// already sorted, merged and non-zero, so it is their Kahan sum, clamped.
func (d *Discrete) floorMass(dim int, keep region.Set) float64 {
	checkDim(dim, d.dim)
	var mass numeric.KahanSum
	for _, p := range d.pts {
		if keep.Contains(p.X[dim]) {
			mass.Add(p.P)
		}
	}
	return numeric.Clamp01(mass.Value())
}
