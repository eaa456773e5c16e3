package numeric

import "math"

// invSqrt2 is 1/sqrt(2), used to map the normal CDF onto math.Erf.
const invSqrt2 = 0.7071067811865475244008443621048490392848359376884740

// sqrt2Pi is sqrt(2*pi), the normalizing constant of the normal density.
const sqrt2Pi = 2.5066282746310005024157652848110452530069867406099383

// NormalPDF returns the density of the normal distribution with mean mu and
// standard deviation sigma at x. sigma must be positive.
func NormalPDF(x, mu, sigma float64) float64 {
	z := (x - mu) / sigma
	return math.Exp(-0.5*z*z) / (sigma * sqrt2Pi)
}

// NormalCDF returns P[X <= x] for X ~ Normal(mu, sigma^2). sigma must be
// positive. The implementation uses math.Erfc on the appropriate side of the
// mean so that deep tail probabilities do not lose precision to cancellation.
func NormalCDF(x, mu, sigma float64) float64 {
	z := (x - mu) / sigma
	if z < 0 {
		return 0.5 * math.Erfc(-z*invSqrt2)
	}
	return 1 - 0.5*math.Erfc(z*invSqrt2)
}

// NormalQuantile returns the p-quantile of Normal(mu, sigma^2), i.e. the x
// with NormalCDF(x, mu, sigma) = p. It panics if p is outside (0, 1).
//
// The rational approximation of Acklam (relative error < 1.15e-9) is refined
// with one Halley step against the exact CDF, giving results accurate to a
// few ulps across the whole open interval.
func NormalQuantile(p, mu, sigma float64) float64 {
	if !(p > 0 && p < 1) {
		panic("numeric: NormalQuantile requires p in (0,1)")
	}
	return mu + sigma*standardNormalQuantile(p)
}

// Coefficients of Acklam's inverse-normal approximation.
var (
	invNormA = [6]float64{
		-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00,
	}
	invNormB = [5]float64{
		-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01,
	}
	invNormC = [6]float64{
		-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00,
	}
	invNormD = [4]float64{
		7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00,
	}
)

func standardNormalQuantile(p float64) float64 {
	const pLow = 0.02425
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((invNormC[0]*q+invNormC[1])*q+invNormC[2])*q+invNormC[3])*q+invNormC[4])*q + invNormC[5]) /
			((((invNormD[0]*q+invNormD[1])*q+invNormD[2])*q+invNormD[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		x = (((((invNormA[0]*r+invNormA[1])*r+invNormA[2])*r+invNormA[3])*r+invNormA[4])*r + invNormA[5]) * q /
			(((((invNormB[0]*r+invNormB[1])*r+invNormB[2])*r+invNormB[3])*r+invNormB[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((invNormC[0]*q+invNormC[1])*q+invNormC[2])*q+invNormC[3])*q+invNormC[4])*q + invNormC[5]) /
			((((invNormD[0]*q+invNormD[1])*q+invNormD[2])*q+invNormD[3])*q + 1)
	}
	// One Halley refinement step against the exact CDF.
	e := 0.5*math.Erfc(-x*invSqrt2) - p
	u := e * sqrt2Pi * math.Exp(0.5*x*x)
	x -= u / (1 + 0.5*x*u)
	return x
}
