package dist

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"probdb/internal/region"
)

func roundTrip(t *testing.T, d Dist) Dist {
	t.Helper()
	buf := Encode(d)
	got, n, err := Decode(buf)
	if err != nil {
		t.Fatalf("decode %v: %v", d, err)
	}
	if n != len(buf) {
		t.Fatalf("decode %v consumed %d of %d bytes", d, n, len(buf))
	}
	return got
}

func TestCodecRoundTripAllTypes(t *testing.T) {
	ds := []Dist{
		NewGaussian(20, 5),
		NewUniform(-1, 3),
		NewExponential(0.25),
		NewTriangular(0, 2, 7),
		NewBernoulli(0.4),
		NewBinomial(12, 0.3),
		NewPoisson(6),
		NewGeometric(0.2),
		NewDiscrete([]float64{0, 1}, []float64{0.1, 0.9}),
		NewDiscreteJoint(2, []Point{{X: []float64{4, 5}, P: 0.9}, {X: []float64{2, 3}, P: 0.1}}),
		uniformHist(0, 10, 5),
		NewGaussian(5, 1).Floor(0, region.Compare(region.LT, 5)),
		NewGaussian(0, 1).Floor(0, region.NewSet(region.Closed(-2, -1), region.Open(1, 2))),
		ProductOf(NewGaussian(0, 1), NewBernoulli(0.5)),
		ProductOf(NewUniform(0, 1).Floor(0, region.Compare(region.GT, 0.5)), NewPoisson(3)),
		MustMultiGaussian([]float64{1, 2}, [][]float64{{2, 0.5}, {0.5, 1}}),
	}
	for _, d := range ds {
		got := roundTrip(t, d)
		if got.Dim() != d.Dim() {
			t.Errorf("%v: dim %d != %d", d, got.Dim(), d.Dim())
			continue
		}
		if !almostEqual(got.Mass(), d.Mass(), 1e-12) {
			t.Errorf("%v: mass %v != %v", d, got.Mass(), d.Mass())
		}
		if got.String() != d.String() {
			t.Errorf("round trip changed rendering: %q != %q", got.String(), d.String())
		}
		// Spot-check density agreement at sampled points.
		r := rand.New(rand.NewSource(1))
		for i := 0; i < 20; i++ {
			x := d.Sample(r)
			if !almostEqual(got.At(x), d.At(x), 1e-12) {
				t.Errorf("%v: At(%v) %v != %v", d, x, got.At(x), d.At(x))
			}
		}
	}
}

func TestCodecGridRoundTripMixed(t *testing.T) {
	axes := []Axis{
		{Kind: KindContinuous, Edges: []float64{0, 1, 2}},
		{Kind: KindDiscrete, Values: []float64{5, 7, 9}},
	}
	g := NewGrid(axes, []float64{0.1, 0.2, 0.05, 0.3, 0.15, 0.2})
	got := roundTrip(t, g).(*Grid)
	if !bytes.Equal(Encode(got), Encode(g)) {
		t.Error("re-encoding is not stable")
	}
}

func TestCodecSizes(t *testing.T) {
	// The Fig. 5 premise: symbolic « histogram « discrete sampling.
	g := NewGaussian(50, 2)
	sym := EncodedSize(g)
	hist := EncodedSize(ToHistogram(g, 5))
	disc := EncodedSize(Discretize(g, 25))
	if sym != 17 {
		t.Errorf("symbolic gaussian size = %d, want 17", sym)
	}
	if !(sym < hist && hist < disc) {
		t.Errorf("size ordering violated: sym=%d hist=%d disc=%d", sym, hist, disc)
	}
	if disc < 4*hist {
		t.Errorf("25-point discrete (%d) should dwarf 5-bin histogram (%d)", disc, hist)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := [][]byte{
		nil,                           // empty
		{255},                         // unknown tag
		{tagGaussian, 1, 2},           // truncated floats
		{tagDiscrete, 0x80},           // bad uvarint (non-terminating)
		Encode(NewGaussian(0, 1))[:9], // cut in half
	}
	for i, buf := range cases {
		if _, _, err := Decode(buf); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
	// Corrupted parameter: sigma <= 0.
	buf := Encode(NewGaussian(0, 1))
	for i := 9; i < 17; i++ {
		buf[i] = 0
	}
	if _, _, err := Decode(buf); err == nil {
		t.Error("zero sigma should fail validation")
	}
}

func TestDecodeTrailingBytesReported(t *testing.T) {
	buf := append(Encode(NewBernoulli(0.5)), 0xAB, 0xCD)
	_, n, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf)-2 {
		t.Errorf("consumed %d, want %d", n, len(buf)-2)
	}
}

func TestDecodeHugeCountRejected(t *testing.T) {
	var buf []byte
	buf = append(buf, tagDiscrete)
	buf = append(buf, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F) // dim = huge
	if _, _, err := Decode(buf); err == nil {
		t.Error("huge count should be rejected")
	}
	// Counts within the limit that the buffer cannot hold are refused
	// before they size an allocation: kept intervals, a grid axis, product
	// factors.
	big := []byte{0xFF, 0xFF, 0xFF, 0x1F} // 1<<26 - 1
	gauss := Encode(NewGaussian(0, 1))
	for _, buf := range [][]byte{
		append(append([]byte{tagFloored}, gauss...), big...),
		append([]byte{tagGrid, 1, 0}, big...),
		append([]byte{tagProduct, 0, 0, 0, 0, 0, 0, 0xF0, 0x3F}, big...),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := Decode(buf)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; err == nil || n > 1<<16 {
			t.Errorf("%x: err %v after allocating %d bytes, want a refusal before allocating", buf, err, n)
		}
	}
}

// TestDecodeUnnormalizedFloor: a floored encoding whose kept intervals are
// unsorted, overlapping, touching or empty — which Encode never writes, but
// a peer may send — decodes exactly as its region.NewSet normalization,
// while Encode's own normalized sets round-trip unchanged.
func TestDecodeUnnormalizedFloor(t *testing.T) {
	m := NewGaussian(10, 4).(symCont).m
	cases := [][]region.Interval{
		{region.Closed(5, 8), region.Closed(0, 6)},                   // unsorted, overlapping
		{region.Closed(6, 9), region.Closed(0, 3)},                   // unsorted, disjoint
		{region.Closed(0, 3), {Lo: 3, Hi: 7, LoOpen: true}},          // touching at a closed point
		{region.Closed(0, 3), {Lo: 5, Hi: 4}, region.Closed(8, 9)},   // an empty interval
		{region.Closed(0, 3), region.Closed(0, 3)},                   // a duplicate
		{{Lo: 0, Hi: 3, HiOpen: true}, {Lo: 3, Hi: 7, LoOpen: true}}, // normalized: a gap at 3
		{region.Below(2, false), region.Closed(4, 4.5)},              // normalized
	}
	for _, ivs := range cases {
		buf := appendContModel([]byte{tagFloored}, m)
		buf = binary.AppendUvarint(buf, uint64(len(ivs)))
		for _, iv := range ivs {
			buf = appendFloat(appendFloat(buf, iv.Lo), iv.Hi)
			var flags byte
			if iv.LoOpen {
				flags |= 1
			}
			if iv.HiOpen {
				flags |= 2
			}
			buf = append(buf, flags)
		}
		checkAgrees(t, buf)
		got, n, err := Decode(buf)
		if err != nil || n != len(buf) {
			t.Fatalf("%v: Decode = %d, %v", ivs, n, err)
		}
		want := newFloored(m, region.NewSet(ivs...))
		if got.String() != want.String() || math.Float64bits(got.Mass()) != math.Float64bits(want.Mass()) ||
			!slices.Equal(got.(Floored).Keep().Intervals(), want.(Floored).Keep().Intervals()) {
			t.Errorf("%v: decoded %v (mass %v), NewSet gives %v (mass %v)", ivs, got, got.Mass(), want, want.Mass())
		}
	}
}
