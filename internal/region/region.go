// Package region implements the region algebra behind the model's floor
// operation. A selection predicate over an uncertain attribute compiles to a
// Set — the set of domain points that *survive* the predicate — and flooring
// a pdf means zeroing it outside that set (§III-A of the paper). Sets are
// finite unions of intervals over the extended real line, with exact
// open/closed endpoint bookkeeping so that discrete distributions (where a
// boundary point carries mass) are floored correctly.
package region

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Interval is a possibly-degenerate interval of the real line. Lo and Hi may
// be ±Inf. LoOpen/HiOpen record whether the corresponding endpoint is
// excluded. The zero value is the degenerate closed interval [0, 0].
type Interval struct {
	Lo, Hi         float64
	LoOpen, HiOpen bool
}

// Empty reports whether the interval contains no points.
func (iv Interval) Empty() bool {
	if math.IsNaN(iv.Lo) || math.IsNaN(iv.Hi) {
		return true
	}
	if iv.Lo > iv.Hi {
		return true
	}
	if iv.Lo == iv.Hi {
		if iv.LoOpen || iv.HiOpen {
			return true
		}
		// A point at infinity is not a real point.
		return math.IsInf(iv.Lo, 0)
	}
	return false
}

// Contains reports whether x lies in the interval.
func (iv Interval) Contains(x float64) bool {
	if x < iv.Lo || x > iv.Hi {
		return false
	}
	if x == iv.Lo && iv.LoOpen {
		return false
	}
	if x == iv.Hi && iv.HiOpen {
		return false
	}
	return true
}

// Intersect returns the intersection of two intervals (possibly empty).
func (iv Interval) Intersect(o Interval) Interval {
	r := iv
	if o.Lo > r.Lo || (o.Lo == r.Lo && o.LoOpen) {
		r.Lo, r.LoOpen = o.Lo, o.LoOpen
	}
	if o.Hi < r.Hi || (o.Hi == r.Hi && o.HiOpen) {
		r.Hi, r.HiOpen = o.Hi, o.HiOpen
	}
	return r
}

// String renders the interval in conventional bracket notation.
func (iv Interval) String() string {
	lb, rb := "[", "]"
	if iv.LoOpen {
		lb = "("
	}
	if iv.HiOpen {
		rb = ")"
	}
	return fmt.Sprintf("%s%g, %g%s", lb, iv.Lo, iv.Hi, rb)
}

// Convenience constructors.

// Closed returns the closed interval [lo, hi].
func Closed(lo, hi float64) Interval { return Interval{Lo: lo, Hi: hi} }

// Open returns the open interval (lo, hi).
func Open(lo, hi float64) Interval { return Interval{Lo: lo, Hi: hi, LoOpen: true, HiOpen: true} }

// Point returns the degenerate interval {x}.
func Point(x float64) Interval { return Interval{Lo: x, Hi: x} }

// Below returns (-inf, x) if open, else (-inf, x].
func Below(x float64, open bool) Interval {
	return Interval{Lo: math.Inf(-1), LoOpen: true, Hi: x, HiOpen: open}
}

// Above returns (x, +inf) if open, else [x, +inf).
func Above(x float64, open bool) Interval {
	return Interval{Lo: x, LoOpen: open, Hi: math.Inf(1), HiOpen: true}
}

// Set is a normalized finite union of disjoint, non-adjacent intervals in
// ascending order. The zero value is the empty set. Sets are immutable:
// every operation returns a new Set.
type Set struct {
	ivs []Interval
}

// Empty is the empty set.
var Empty = Set{}

// Full is the whole real line.
var Full = NewSet(Interval{Lo: math.Inf(-1), LoOpen: true, Hi: math.Inf(1), HiOpen: true})

// NewSet builds a normalized set from arbitrary (possibly overlapping,
// possibly empty) intervals.
func NewSet(ivs ...Interval) Set {
	kept := make([]Interval, 0, len(ivs))
	for _, iv := range ivs {
		if !iv.Empty() {
			kept = append(kept, iv)
		}
	}
	if len(kept) == 0 {
		return Set{}
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Lo != b.Lo {
			return a.Lo < b.Lo
		}
		// Closed lower endpoint sorts before open at the same coordinate.
		return !a.LoOpen && b.LoOpen
	})
	out := kept[:1]
	for _, iv := range kept[1:] {
		last := &out[len(out)-1]
		if mergeable(*last, iv) {
			if iv.Hi > last.Hi || (iv.Hi == last.Hi && !iv.HiOpen) {
				last.Hi, last.HiOpen = iv.Hi, iv.HiOpen
			}
		} else {
			out = append(out, iv)
		}
	}
	norm := make([]Interval, len(out))
	copy(norm, out)
	return Set{ivs: norm}
}

// SetOf returns the set of ivs, taking the slice over without a copy, when
// ivs is already in NewSet's normal form: every interval non-empty, and no
// interval mergeable with the one before it — which also puts them in
// NewSet's order. ok is false otherwise, and NewSet(ivs...) builds the set.
func SetOf(ivs []Interval) (s Set, ok bool) {
	for i, iv := range ivs {
		if iv.Empty() || i > 0 && mergeable(ivs[i-1], iv) {
			return Set{}, false
		}
	}
	if len(ivs) == 0 {
		return Set{}, true
	}
	return Set{ivs: ivs}, true
}

// mergeable reports whether two intervals with a.Lo <= b.Lo union to a single
// interval (overlap or touch with at least one closed endpoint).
func mergeable(a, b Interval) bool {
	if b.Lo < a.Hi {
		return true
	}
	if b.Lo == a.Hi {
		return !a.HiOpen || !b.LoOpen
	}
	return false
}

// Intervals returns the normalized intervals of the set. Callers must not
// modify the returned slice.
func (s Set) Intervals() []Interval { return s.ivs }

// IsEmpty reports whether the set contains no points.
func (s Set) IsEmpty() bool { return len(s.ivs) == 0 }

// IsFull reports whether the set is the whole real line.
func (s Set) IsFull() bool {
	return len(s.ivs) == 1 &&
		math.IsInf(s.ivs[0].Lo, -1) && math.IsInf(s.ivs[0].Hi, 1)
}

// Contains reports whether x is in the set.
func (s Set) Contains(x float64) bool {
	// Binary search for the first interval with Hi >= x.
	i := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].Hi >= x })
	return i < len(s.ivs) && s.ivs[i].Contains(x)
}

// Union returns s ∪ o.
func (s Set) Union(o Set) Set {
	all := make([]Interval, 0, len(s.ivs)+len(o.ivs))
	all = append(all, s.ivs...)
	all = append(all, o.ivs...)
	return NewSet(all...)
}

// Intersect returns s ∩ o.
func (s Set) Intersect(o Set) Set {
	var out []Interval
	i, j := 0, 0
	for i < len(s.ivs) && j < len(o.ivs) {
		iv := s.ivs[i].Intersect(o.ivs[j])
		if !iv.Empty() {
			out = append(out, iv)
		}
		// Advance whichever interval ends first.
		if endsBefore(s.ivs[i], o.ivs[j]) {
			i++
		} else {
			j++
		}
	}
	return Set{ivs: out}
}

func endsBefore(a, b Interval) bool {
	if a.Hi != b.Hi {
		return a.Hi < b.Hi
	}
	return a.HiOpen && !b.HiOpen
}

// Complement returns the complement of s over the real line.
func (s Set) Complement() Set {
	if len(s.ivs) == 0 {
		return Full
	}
	var out []Interval
	lo, loOpen := math.Inf(-1), true
	for _, iv := range s.ivs {
		gap := Interval{Lo: lo, LoOpen: loOpen, Hi: iv.Lo, HiOpen: !iv.LoOpen}
		if !gap.Empty() {
			out = append(out, gap)
		}
		lo, loOpen = iv.Hi, !iv.HiOpen
	}
	last := Interval{Lo: lo, LoOpen: loOpen, Hi: math.Inf(1), HiOpen: true}
	if !last.Empty() {
		out = append(out, last)
	}
	return Set{ivs: out}
}

// Minus returns s \ o.
func (s Set) Minus(o Set) Set { return s.Intersect(o.Complement()) }

// Equal reports whether two sets contain exactly the same points.
func (s Set) Equal(o Set) bool {
	if len(s.ivs) != len(o.ivs) {
		return false
	}
	for i := range s.ivs {
		if s.ivs[i] != o.ivs[i] {
			return false
		}
	}
	return true
}

// String renders the set as a union of intervals, or "∅" when empty.
func (s Set) String() string {
	if len(s.ivs) == 0 {
		return "∅"
	}
	parts := make([]string, len(s.ivs))
	for i, iv := range s.ivs {
		parts[i] = iv.String()
	}
	return strings.Join(parts, " ∪ ")
}
