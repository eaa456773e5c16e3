package dist

import (
	"fmt"
	"math"
)

// ParamError reports a pdf parameter outside its family's bound. Each
// family's bound has one copy in this package, and every boundary calls it:
// the Build* constructors return this error (the New* ones panic with it),
// Decode and Check return it wrapped with the offset, and the query parser
// returns it for a literal.
type ParamError struct {
	Family string  // the family's literal name: GAUSSIAN, BINOMIAL, DISCRETE, ...
	Param  string  // the parameter that breaks the bound
	Value  float64 // its value
	Bound  string  // what the bound requires
}

func (e *ParamError) Error() string {
	return fmt.Sprintf("dist: %s %s %v %s", e.Family, e.Param, e.Value, e.Bound)
}

// must is the panicking form of a Build* constructor.
func must[D any](d D, err error) D {
	if err != nil {
		panic(err)
	}
	return d
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// checkCont is the part of the rule every continuous family shares. Its
// mean, variance and E[X²] must be finite, its variance positive, and
// Collapse must be able to bin it: the span collapseCont cuts from its
// support (truncatedSupport, at the default options) must be finite and hold
// GridBins bins each at least four float64 steps wide at the span's
// magnitude, so that every grid edge is distinct. A failure names param, the
// parameter the family holds responsible.
func checkCont[M contModel](family, param string, v float64, m M) error {
	mu, vr := m.mean(), m.variance()
	sup := truncatedSupport(m, DefaultOptions.TailEps)
	step := (sup.Hi - sup.Lo) / float64(DefaultOptions.GridBins)
	switch {
	case !finite(mu) || !(vr > 0) || math.IsInf(mu*mu+vr, 0):
		return &ParamError{family, param, v, "gives a mean, variance or E[X²] that is not finite, or no variance"}
	case !(step >= 0x1p-50*math.Max(math.Abs(sup.Lo), math.Abs(sup.Hi))) || math.IsInf(step, 0):
		return &ParamError{family, param, v, "gives a support too wide, or too narrow at its magnitude, to bin"}
	}
	return nil
}

// massTol is the one slack the mass of a DISCRETE or HISTOGRAM pdf may
// exceed 1 by: summation drift in the kernels that build them.
const massTol = 1e-9

// checkProb is the rule for one point probability or cell mass.
func checkProb(family string, p float64) error {
	if !(p >= 0) {
		return &ParamError{family, "probability", p, "must be at least 0"}
	}
	return nil
}

// checkMass is the rule for a DISCRETE or HISTOGRAM pdf's total mass,
// summed with a numeric.KahanSum in the order its points or cells are held.
func checkMass(family string, m float64) error {
	if m > 1+massTol {
		return &ParamError{family, "mass", m, "must be at most 1"}
	}
	return nil
}

// checkCoord is the rule for one coordinate of a DISCRETE point.
func checkCoord(x float64) error {
	if !finite(x) {
		return &ParamError{"DISCRETE", "coordinate", x, "must be finite"}
	}
	return nil
}
