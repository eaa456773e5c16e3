package dist

import (
	"bytes"
	"math/rand"
	"testing"

	"probdb/internal/region"
)

// everyTag returns one distribution per encoding tag, floored ones over
// each continuous model.
func everyTag() []Dist {
	return []Dist{
		NewGaussian(20, 5),
		NewUniform(-1, 3),
		NewExponential(0.25),
		NewTriangular(0, 2, 7),
		NewBernoulli(0.4),
		NewBinomial(12, 0.3),
		NewPoisson(6),
		NewGeometric(0.2),
		NewDiscrete([]float64{0, 1, 4}, []float64{0.1, 0.6, 0.3}),
		NewDiscreteJoint(2, []Point{{X: []float64{4, 5}, P: 0.9}, {X: []float64{2, 3}, P: 0.1}}),
		uniformHist(0, 10, 5),
		NewGaussian(5, 1).Floor(0, region.Compare(region.LT, 5)),
		NewUniform(0, 4).Floor(0, region.NewSet(region.Closed(0, 1), region.Open(2, 3))),
		NewExponential(1).Floor(0, region.Compare(region.GT, 2)),
		NewTriangular(0, 1, 2).Floor(0, region.Compare(region.LE, 1)),
		ProductOf(NewGaussian(0, 1), NewBernoulli(0.5)),
		MustMultiGaussian([]float64{1, 2}, [][]float64{{2, 0.5}, {0.5, 1}}),
	}
}

// checkAgrees fails t unless Check and Decode accept or reject buf alike
// and, on acceptance, consume the same bytes.
func checkAgrees(t *testing.T, buf []byte) {
	t.Helper()
	n, cerr := Check(buf)
	_, dn, derr := Decode(buf)
	if (cerr == nil) != (derr == nil) {
		t.Fatalf("%x: Check error %v, Decode error %v", buf, cerr, derr)
	}
	if cerr == nil && n != dn {
		t.Fatalf("%x: Check consumed %d bytes, Decode %d", buf, n, dn)
	}
}

// TestCheckMatchesDecode: on every tag's encoding, each of its truncations
// and the encoding followed by trailing bytes, Check agrees with Decode.
func TestCheckMatchesDecode(t *testing.T) {
	for _, d := range everyTag() {
		buf := Encode(d)
		if n, err := Check(buf); err != nil || n != len(buf) {
			t.Fatalf("%v: Check = %d, %v; want %d, nil", d, n, err, len(buf))
		}
		for i := range buf {
			checkAgrees(t, buf[:i])
		}
		checkAgrees(t, append(buf, 0xAB, 0xCD))
	}
}

// TestIntervalFlagsRefused: a floored encoding whose interval flag byte
// sets a bit appendRegionSet never writes is refused by Decode and Check
// alike, so no accepted pdf re-encodes to other bytes; the two defined
// bits are accepted in every combination and round-trip.
func TestIntervalFlagsRefused(t *testing.T) {
	m := NewGaussian(0, 1).(symCont).m
	for flags := 0; flags < 256; flags++ {
		buf := appendContModel([]byte{tagFloored}, m)
		buf = append(buf, 1) // one kept interval
		buf = appendFloat(appendFloat(buf, 0), 1)
		buf = append(buf, byte(flags))
		checkAgrees(t, buf)
		d, _, err := Decode(buf)
		if flags&^3 != 0 {
			if err == nil {
				t.Errorf("flags %#x accepted", flags)
			}
			continue
		}
		if err != nil {
			t.Fatalf("flags %#x: %v", flags, err)
		}
		if got := Encode(d); !bytes.Equal(got, buf) {
			t.Errorf("flags %#x: re-encodes to %x, want %x", flags, got, buf)
		}
	}
}

// TestCheckAllocs: Check validates the symbolic, Discrete and floored
// encodings — the shapes a scattered result carries — without allocating.
func TestCheckAllocs(t *testing.T) {
	for _, d := range []Dist{
		NewGaussian(20, 5),
		NewUniform(-1, 3),
		NewExponential(0.25),
		NewTriangular(0, 2, 7),
		NewBernoulli(0.4),
		NewBinomial(12, 0.3),
		NewPoisson(6),
		NewGeometric(0.2),
		NewDiscrete([]float64{0, 1, 4}, []float64{0.1, 0.6, 0.3}),
		NewGaussian(5, 1).Floor(0, region.NewSet(region.Closed(-2, -1), region.Open(1, 2))),
		NewUniform(0, 4).Floor(0, region.Compare(region.LT, 3)),
	} {
		buf := Encode(d)
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := Check(buf); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%v: Check allocates %v times, want 0", d, allocs)
		}
	}
}

// FuzzCheckMatchesDecode: Check and Decode accept and reject the same
// inputs and consume the same bytes. Seeds are every tag's encoding and
// deterministic bit flips of them.
func FuzzCheckMatchesDecode(f *testing.F) {
	r := rand.New(rand.NewSource(11))
	for _, d := range everyTag() {
		buf := Encode(d)
		f.Add(buf)
		for i := 0; i < 8; i++ {
			m := append([]byte{}, buf...)
			m[r.Intn(len(m))] ^= byte(1 << r.Intn(8))
			f.Add(m)
		}
	}
	for _, flags := range []byte{0x04, 0x80} {
		buf := Encode(NewGaussian(0, 1).Floor(0, region.NewSet(region.Closed(0, 1))))
		buf[len(buf)-1] |= flags
		f.Add(buf)
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		checkAgrees(t, buf)
	})
}
