package query

import (
	"bytes"
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"

	"probdb/internal/dist"
)

// parsePDF parses lit as the one value of an INSERT and returns its pdf.
func parsePDF(lit string) (dist.Dist, error) {
	st, err := Parse("INSERT INTO t (x) VALUES (" + lit + ")")
	if err != nil {
		return nil, err
	}
	return st.(Insert).Rows[0][0].(PDFExpr).D, nil
}

// TestPDFLiteralBounds: the parser refuses literals that define no usable
// pdf with the family's *dist.ParamError, naming the family and the
// parameter. The first four once parsed and then broke kernels; BINOMIAL
// truncated its n; the last three are refused before their enumeration
// (1e10 to 1e12 points) starts.
func TestPDFLiteralBounds(t *testing.T) {
	for _, c := range []struct{ lit, family, param string }{
		{"GAUSSIAN(1e200, 1)", "GAUSSIAN", "mean"},
		{"UNIFORM(-1e308, 1e308)", "UNIFORM", "hi"},
		{"EXPONENTIAL(1e-310)", "EXPONENTIAL", "rate"},
		{"TRIANGULAR(-1e308, 0, 1e308)", "TRIANGULAR", "hi"},
		{"BINOMIAL(2.7, 0.5)", "BINOMIAL", "n"},
		{"GEOMETRIC(1e-9)", "GEOMETRIC", "p"},
		{"POISSON(1e12)", "POISSON", "lambda"},
		{"BINOMIAL(1e10, 0.5)", "BINOMIAL", "n"},
		{"GAUSSIAN(0, -1)", "GAUSSIAN", "variance"},
		{"DISCRETE(1:0.7, 2:0.7)", "DISCRETE", "mass"},
		{"HISTOGRAM((0, 1, 1):(0.5, 0.5))", "HISTOGRAM", "edge"},
		{"MVN((1e200):((1)))", "MVN", "mean"},
	} {
		d, err := parsePDF(c.lit)
		var pe *dist.ParamError
		if !errors.As(err, &pe) || pe.Family != c.family || pe.Param != c.param {
			t.Errorf("%s: parsed to %v, %v; want a %s %s ParamError", c.lit, d, err, c.family, c.param)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, c.family) || !strings.Contains(msg, c.param) {
			t.Errorf("%s: error %q names neither family nor parameter", c.lit, msg)
		}
	}
}

// pdfLiteralFamilies are the literal templates FuzzPDFLiteral fills with
// its three numbers, one per constructor family.
var pdfLiteralFamilies = []string{
	"GAUSSIAN(%a, %b)", "UNIFORM(%a, %b)", "EXPONENTIAL(%a)", "TRIANGULAR(%a, %b, %c)",
	"BERNOULLI(%a)", "BINOMIAL(%a, %b)", "POISSON(%a)", "GEOMETRIC(%a)",
	"DISCRETE(%a:%b, %c:0.25)", "HISTOGRAM((%a, %b):(%c))", "MVN((%a, %b):((%c, 0), (0, %c)))",
}

// FuzzPDFLiteral: the parser and the decoder accept the same pdfs. Each
// literal is refused by the parser, or its pdf encodes to bytes that Decode
// and Check accept whole and that re-encode to themselves, with a mass in
// [0, 1] and Mass, CDF and Collapse running without a panic.
func FuzzPDFLiteral(f *testing.F) {
	for _, c := range []struct {
		fam     uint8
		a, b, c float64
	}{
		{0, 1e200, 1, 0}, {1, -1e308, 1e308, 0}, {2, 1e-310, 0, 0}, {3, -1e308, 0, 1e308},
		{5, 2.7, 0.5, 0}, {7, 1e-9, 0, 0}, {6, 1e12, 0, 0}, {5, 1e10, 0.5, 0},
		{0, 20, 5, 0}, {0, 1e8, 1e-4, 0}, {1, -1, 3, 0}, {2, 0.25, 0, 0}, {3, 0, 2, 7},
		{4, 0.4, 0, 0}, {5, 12, 0.3, 0}, {6, 6, 0, 0}, {7, 0.2, 0, 0},
		{8, 1, 0.5, 2}, {9, 0, 10, 0.6}, {10, 1, 2, 0.5},
		{5, 65535, 0.5, 0}, {7, 5.3e-4, 0, 0}, {3, 0, 1e-170, 1e-160}, {0, 1e15, 1, 0},
		{9, -1.5e308, 1e308, 0.8375}, // a bucket of infinite width once gave a NaN CDF
	} {
		f.Add(c.fam, c.a, c.b, c.c)
	}
	num := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	f.Fuzz(func(t *testing.T, fam uint8, a, b, c float64) {
		lit := pdfLiteralFamilies[int(fam)%len(pdfLiteralFamilies)]
		lit = strings.NewReplacer("%a", num(a), "%b", num(b), "%c", num(c)).Replace(lit)
		d, err := parsePDF(lit)
		if err != nil {
			return
		}
		enc := dist.Encode(d)
		if n, err := dist.Check(enc); err != nil || n != len(enc) {
			t.Fatalf("%s: Check = %d, %v; want %d, nil", lit, n, err, len(enc))
		}
		back, n, err := dist.Decode(enc)
		if err != nil || n != len(enc) {
			t.Fatalf("%s: Decode = %d, %v; want %d, nil", lit, n, err, len(enc))
		}
		if again := dist.Encode(back); !bytes.Equal(again, enc) {
			t.Fatalf("%s: re-encodes to %x, want %x", lit, again, enc)
		}
		if m := d.Mass(); !(m >= 0 && m <= 1) {
			t.Fatalf("%s: mass %v", lit, m)
		}
		if d.Dim() == 1 {
			for _, x := range []float64{a, b, c, 0} {
				if p := dist.CDF(d, x); math.IsNaN(p) {
					t.Fatalf("%s: CDF(%v) is NaN", lit, x)
				}
			}
		}
		dist.Collapse(d, dist.DefaultOptions)
	})
}
