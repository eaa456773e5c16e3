package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// TestDecodeRefusesOutOfBound: the encodings of pdfs the family rules
// refuse, built by hand since no constructor builds them, fail Decode and
// Check alike with the *ParamError the constructor would have returned.
func TestDecodeRefusesOutOfBound(t *testing.T) {
	f := appendFloat
	binom := func(n uint64, p float64) []byte {
		return f(binary.AppendUvarint([]byte{tagBinomial}, n), p)
	}
	for _, c := range []struct {
		name   string
		buf    []byte
		family string
	}{
		{"GAUSSIAN(1e200, 1)", f(f([]byte{tagGaussian}, 1e200), 1), "GAUSSIAN"},
		{"UNIFORM(-1e308, 1e308)", f(f([]byte{tagUniform}, -1e308), 1e308), "UNIFORM"},
		{"EXPONENTIAL(1e-310)", f([]byte{tagExponential}, 1e-310), "EXPONENTIAL"},
		{"TRIANGULAR(-1e308, 0, 1e308)", f(f(f([]byte{tagTriangular}, -1e308), 0), 1e308), "TRIANGULAR"},
		{"GEOMETRIC(1e-9)", f([]byte{tagGeometric}, 1e-9), "GEOMETRIC"},
		{"POISSON(1e12)", f([]byte{tagPoisson}, 1e12), "POISSON"},
		{"BINOMIAL(1e10, 0.5)", binom(1e10, 0.5), "BINOMIAL"},
		{"BINOMIAL(2^64-1, 0.5)", binom(1<<64-1, 0.5), "BINOMIAL"},
		{"floored GAUSSIAN(1e200, 1)", append(f(f([]byte{tagFloored, tagGaussian}, 1e200), 1), 0), "GAUSSIAN"},
	} {
		checkAgrees(t, c.buf)
		_, _, err := Decode(c.buf)
		var pe *ParamError
		if !errors.As(err, &pe) || pe.Family != c.family {
			t.Errorf("%s: Decode error %v, want a %s ParamError", c.name, err, c.family)
		}
	}
}

// TestEnumerationBound: each symbolic discrete family accepts the largest
// parameter whose enumeration fits maxEnumerate points and refuses the next
// one, at the constructor and the decoder alike.
func TestEnumerationBound(t *testing.T) {
	for _, c := range []struct {
		name  string
		fit   Dist
		build func() (Dist, error)
	}{
		{"BINOMIAL", NewBinomial(maxEnumerate-1, 0.5), func() (Dist, error) { return BuildBinomial(maxEnumerate, 0.5) }},
		{"POISSON", NewPoisson(62505), func() (Dist, error) { return BuildPoisson(62506) }},
		{"GEOMETRIC", NewGeometric(5.269e-4), func() (Dist, error) { return BuildGeometric(5.268e-4) }},
	} {
		if n := len(c.fit.(symDisc).backing.Points()); n > maxEnumerate {
			t.Errorf("%s: %v enumerates %d points", c.name, c.fit, n)
		}
		if _, err := Check(Encode(c.fit)); err != nil {
			t.Errorf("%s: Check refuses %v: %v", c.name, c.fit, err)
		}
		var pe *ParamError
		if d, err := c.build(); !errors.As(err, &pe) || pe.Family != c.name {
			t.Errorf("%s: one past the bound built %v, %v", c.name, d, err)
		}
	}
}

// TestDecodeRefusesNonCanonicalDiscrete: a Discrete encoding whose points
// are out of order, repeated or of probability 0 — which Encode never
// writes — is refused, so the mass the decoder sums is the mass the
// constructor sums.
func TestDecodeRefusesNonCanonicalDiscrete(t *testing.T) {
	enc := func(pts ...float64) []byte {
		buf := []byte{tagDiscrete, 1, byte(len(pts) / 2)}
		for _, v := range pts {
			buf = appendFloat(buf, v)
		}
		return buf
	}
	if _, _, err := Decode(enc(1, 0.5, 2, 0.5)); err != nil {
		t.Fatalf("canonical encoding refused: %v", err)
	}
	for _, buf := range [][]byte{enc(2, 0.5, 1, 0.5), enc(1, 0.5, 1, 0.5), enc(1, 0, 2, 0.5)} {
		checkAgrees(t, buf)
		if _, _, err := Decode(buf); err == nil {
			t.Errorf("%x: non-canonical Discrete decoded", buf)
		}
	}
}

// TestConstructorsPanicWithParamError: the panicking constructors panic
// with the error their Build* form returns.
func TestConstructorsPanicWithParamError(t *testing.T) {
	defer func() {
		if pe, ok := recover().(*ParamError); !ok || pe.Family != "GAUSSIAN" || pe.Param != "mean" {
			t.Errorf("NewGaussian(1e200, 1) panicked with %v", pe)
		}
	}()
	NewGaussian(1e200, 1)
}

// TestDecodeRefusesNegativeGridWeight: the decoder allows none of the
// negative drift the grid-building kernels clamp to 0, so a grid encoding
// it accepts re-encodes to the same bytes.
func TestDecodeRefusesNegativeGridWeight(t *testing.T) {
	buf := Encode(NewHistogram([]float64{0, 1, 2}, []float64{0.5, 0.25}))
	if d, _, err := Decode(buf); err != nil || !bytes.Equal(Encode(d), buf) {
		t.Fatalf("histogram: %v, %v", d, err)
	}
	buf = appendFloat(buf[:len(buf)-8], -1e-13) // the last cell's weight
	checkAgrees(t, buf)
	var pe *ParamError
	if d, _, err := Decode(buf); !errors.As(err, &pe) || pe.Family != "HISTOGRAM" {
		t.Errorf("weight -1e-13: Decode = %v, %v; want a HISTOGRAM ParamError", d, err)
	}
}
