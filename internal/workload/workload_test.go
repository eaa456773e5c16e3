package workload

import (
	"math"
	"testing"

	"probdb/internal/dist"
)

func TestGenDeterministic(t *testing.T) {
	a := NewGen(42).Readings(50)
	b := NewGen(42).Readings(50)
	for i := range a {
		if a[i].Value.String() != b[i].Value.String() {
			t.Fatalf("reading %d differs across same-seed runs", i)
		}
	}
	if c := NewGen(43).Readings(50); c[0].Value.String() == a[0].Value.String() {
		t.Error("different seeds should differ")
	}
}

func TestReadingParameterDistributions(t *testing.T) {
	g := NewGen(7)
	rs := g.Readings(20000)
	var muSum, sigmaSum float64
	muMin, muMax := math.Inf(1), math.Inf(-1)
	for _, r := range rs {
		gg := r.Value.(interface{ Mean(int) float64 })
		mu := gg.Mean(0)
		sigma := math.Sqrt(r.Value.Variance(0))
		muSum += mu
		sigmaSum += sigma
		if mu < muMin {
			muMin = mu
		}
		if mu > muMax {
			muMax = mu
		}
		if sigma < minSigma {
			t.Fatalf("sigma %v below floor", sigma)
		}
	}
	n := float64(len(rs))
	if got := muSum / n; math.Abs(got-50) > 1 {
		t.Errorf("mean of means = %v, want ~50", got)
	}
	if muMin < 0 || muMax > 100 {
		t.Errorf("means outside [0,100]: %v..%v", muMin, muMax)
	}
	if got := sigmaSum / n; math.Abs(got-SigmaMean) > 0.05 {
		t.Errorf("mean sigma = %v, want ~%v", got, SigmaMean)
	}
}

func TestRangeQueryParameters(t *testing.T) {
	g := NewGen(9)
	qs := g.RangeQueries(20000)
	var lenSum float64
	for _, q := range qs {
		if q.Len() <= 0 {
			t.Fatalf("non-positive query length %v", q.Len())
		}
		lenSum += q.Len()
	}
	if got := lenSum / float64(len(qs)); math.Abs(got-QueryLenMean) > 0.2 {
		t.Errorf("mean query length = %v, want ~%v", got, QueryLenMean)
	}
}

func TestReadingCodecRoundTrip(t *testing.T) {
	g := NewGen(3)
	for _, rd := range g.Readings(20) {
		for _, repr := range []dist.Dist{
			rd.Value,
			dist.ToHistogram(rd.Value, 5),
			dist.Discretize(rd.Value, 25),
		} {
			rec := EncodeReading(Reading{RID: rd.RID, Value: repr})
			d, err := DecodeReadingValue(rec)
			if err != nil || d.String() != repr.String() {
				t.Errorf("decoded pdf %v (%v), want %v", d, err, repr)
			}
		}
	}
}

func TestDecodeReadingErrors(t *testing.T) {
	if _, err := DecodeReadingValue(nil); err == nil {
		t.Error("empty record should fail")
	}
	rec := EncodeReading(Reading{RID: 1, Value: dist.NewGaussian(0, 1)})
	if _, err := DecodeReadingValue(rec[:5]); err == nil {
		t.Error("truncated record should fail")
	}
}

func TestRecordSizeOrdering(t *testing.T) {
	// The Fig. 5 premise at the record level.
	g := NewGen(5)
	rd := g.Reading(0)
	sym := len(EncodeReading(rd))
	hist := len(EncodeReading(Reading{RID: 0, Value: dist.ToHistogram(rd.Value, 5)}))
	disc := len(EncodeReading(Reading{RID: 0, Value: dist.Discretize(rd.Value, 25)}))
	if !(sym < hist && hist < disc) {
		t.Errorf("size ordering violated: %d / %d / %d", sym, hist, disc)
	}
}
