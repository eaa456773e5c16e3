package numeric

import "math"

// Integrate numerically integrates f over [a, b] with adaptive Simpson
// quadrature to the given absolute tolerance. It handles a == b (returning 0)
// and a > b (returning the negated integral). Recursion depth is bounded; on
// hitting the bound the best available estimate is returned, so the routine
// always terminates even on pathological integrands.
func Integrate(f func(float64) float64, a, b, tol float64) float64 {
	if a == b {
		return 0
	}
	if a > b {
		return -Integrate(f, b, a, tol)
	}
	if tol <= 0 {
		tol = 1e-10
	}
	fa, fb := f(a), f(b)
	m, fm, whole := simpsonStep(f, a, b, fa, fb)
	return adaptiveSimpson(f, a, b, fa, fb, m, fm, whole, tol, 52)
}

// simpsonStep evaluates one Simpson estimate of the integral over [a, b],
// returning the midpoint, f(midpoint) and the estimate.
func simpsonStep(f func(float64) float64, a, b, fa, fb float64) (m, fm, s float64) {
	m = a + (b-a)/2
	fm = f(m)
	s = (b - a) / 6 * (fa + 4*fm + fb)
	return m, fm, s
}

func adaptiveSimpson(f func(float64) float64, a, b, fa, fb, m, fm, whole, tol float64, depth int) float64 {
	lm, flm, left := simpsonStep(f, a, m, fa, fm)
	rm, frm, right := simpsonStep(f, m, b, fm, fb)
	delta := left + right - whole
	if depth <= 0 || math.Abs(delta) <= 15*tol {
		return left + right + delta/15
	}
	return adaptiveSimpson(f, a, m, fa, fm, lm, flm, left, tol/2, depth-1) +
		adaptiveSimpson(f, m, b, fm, fb, rm, frm, right, tol/2, depth-1)
}
