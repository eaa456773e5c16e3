package dist

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"probdb/internal/region"
)

// TestFloorMassMatchesFloor: FloorMass is the mass of the floor Floor builds,
// bit for bit, for every family, for one- and multi-interval keep regions,
// for the empty and the full region, for a floor of a floor, and along every
// dimension of a joint pdf.
func TestFloorMassMatchesFloor(t *testing.T) {
	mg, err := NewMultiGaussian([]float64{1, -2}, [][]float64{{2, 0.5}, {0.5, 1}})
	if err != nil {
		t.Fatal(err)
	}
	ds := map[string]Dist{
		"gaussian":    NewGaussian(3, 2),
		"gaussianFar": NewGaussian(1e6, 1e-3),
		"uniform":     NewUniform(-1, 4),
		"exponential": NewExponential(0.7),
		"triangular":  NewTriangular(0, 3, 9),
		"floored":     NewGaussian(2, 1).Floor(0, region.Compare(region.LT, 2.5)),
		"flooredTwo":  NewUniform(0, 10).Floor(0, region.Compare(region.NE, 5)),
		"poisson":     NewPoisson(4),
		"geometric":   NewGeometric(0.3),
		"bernoulli":   NewBernoulli(0.25),
		"binomial":    NewBinomial(9, 0.4),
		"discrete":    NewDiscrete([]float64{-1, 0, 2.5, 7}, []float64{0.125, 0.25, 0.5, 0.0625}),
		"discreteTie": NewDiscrete([]float64{1, 1, 3}, []float64{0.25, 0.25, 0.5}),
		"joint": NewDiscreteJoint(2, []Point{
			{X: []float64{0, 1}, P: 0.25}, {X: []float64{2, -1}, P: 0.5}, {X: []float64{2, 3}, P: 0.125},
		}),
		"histogram":   NewHistogram([]float64{0, 1, 2.5, 4}, []float64{0.25, 0.5, 0.25}),
		"histPartial": NewHistogram([]float64{-3, 0, 3}, []float64{0.3, 0.2}),
		"product":     ProductOf(NewGaussian(0, 1), NewUniform(0, 2)),
		"multi":       mg,
		"affine":      Affine(NewPoisson(2), 2, 1),
		"collapsed":   Collapse(NewGaussian(5, 1), DefaultOptions),
	}
	keeps := map[string]region.Set{
		"lt":    region.Compare(region.LT, 2.5),
		"ge":    region.Compare(region.GE, 0),
		"ne":    region.Compare(region.NE, 2.5),
		"two":   region.NewSet(region.Closed(-0.5, 0.5), region.Closed(2, 3.5)),
		"point": region.NewSet(region.Point(2.5)),
		"far":   region.Compare(region.GT, 1e6+0.001),
		"empty": {},
		"full":  region.Full,
	}
	for dn, d := range ds {
		for kn, keep := range keeps {
			for dim := 0; dim < d.Dim(); dim++ {
				floored := d.Floor(dim, keep)
				want := floored.Mass()
				got := FloorMass(d, dim, keep)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s dim %d keep %s: FloorMass %v, Floor().Mass() %v", dn, dim, kn, got, want)
				}
				if fw := FloorWithMass(d, dim, keep, got); !reflect.DeepEqual(fw, floored) || !bytes.Equal(Encode(fw), Encode(floored)) ||
					math.Float64bits(fw.Mass()) != math.Float64bits(want) {
					t.Errorf("%s dim %d keep %s: FloorWithMass %v, Floor %v", dn, dim, kn, fw, floored)
				}
			}
		}
	}
}

// TestFloorMassAllocatesNothing: the families a scan floors most — symbolic
// continuous, their floors, and symbolic discrete — answer without building
// the floor.
func TestFloorMassAllocatesNothing(t *testing.T) {
	keep := region.Compare(region.NE, 2.5)
	for _, d := range []Dist{
		NewGaussian(3, 2),
		NewGaussian(2, 1).Floor(0, region.Compare(region.LT, 2.5)),
		NewPoisson(4),
		NewDiscrete([]float64{1, 3}, []float64{0.5, 0.5}),
	} {
		if n := testing.AllocsPerRun(50, func() { FloorMass(d, 0, keep) }); n != 0 {
			t.Errorf("%v: %v allocations", d, n)
		}
	}
}
