// Package workload generates the synthetic datasets and query workloads of
// the paper's experimental evaluation (§IV): random "sensor readings" with
// the schema Readings(rid, value) whose uncertain pdfs are Gaussians with
// means uniform in [0, 100] and standard deviations ~ N(2, 0.5²), and range
// queries with midpoints uniform in [0, 100] and interval lengths
// ~ N(10, 3²). All generators are seeded and deterministic.
package workload

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"probdb/internal/dist"
)

// Paper parameters (§IV).
const (
	MeanLo         = 0.0
	MeanHi         = 100.0
	SigmaMean      = 2.0
	SigmaStddev    = 0.5
	QueryLenMean   = 10.0
	QueryLenStddev = 3.0
)

// minSigma keeps degenerate negative/zero draws of the stddev distribution
// usable; N(2, 0.5²) dips below this only with probability ~6e-5.
const minSigma = 0.05

// Reading is one synthetic sensor reading: an identifier and an uncertain
// value.
type Reading struct {
	RID   int64
	Value dist.Dist
}

// Gen deterministically generates paper-style workloads.
type Gen struct {
	r *rand.Rand
}

// NewGen returns a generator with the given seed.
func NewGen(seed int64) *Gen {
	return &Gen{r: rand.New(rand.NewSource(seed))}
}

// Reading draws one sensor reading with the paper's distribution of
// parameters.
func (g *Gen) Reading(rid int64) Reading {
	mu := MeanLo + g.r.Float64()*(MeanHi-MeanLo)
	sigma := SigmaMean + g.r.NormFloat64()*SigmaStddev
	if sigma < minSigma {
		sigma = minSigma
	}
	return Reading{RID: rid, Value: dist.NewGaussian(mu, sigma)}
}

// Readings draws n readings with RIDs 0..n-1.
func (g *Gen) Readings(n int) []Reading {
	out := make([]Reading, n)
	for i := range out {
		out[i] = g.Reading(int64(i))
	}
	return out
}

// SkewedReading draws a reading whose mean follows a power-law placement
// instead of the paper's uniform one: mean = lo + (hi-lo) * u^(1+skew), so
// larger skew concentrates the population toward the low end of the value
// domain. Skew 0 degenerates to the uniform paper workload. The non-uniform
// density is what makes ANALYZE's histograms earn their keep — equi-width
// buckets then carry real selectivity signal instead of a flat profile.
func (g *Gen) SkewedReading(rid int64, skew float64) Reading {
	if skew < 0 {
		skew = 0
	}
	u := math.Pow(g.r.Float64(), 1+skew)
	mu := MeanLo + u*(MeanHi-MeanLo)
	sigma := SigmaMean + g.r.NormFloat64()*SigmaStddev
	if sigma < minSigma {
		sigma = minSigma
	}
	return Reading{RID: rid, Value: dist.NewGaussian(mu, sigma)}
}

// SkewedReadings draws n skewed readings with RIDs 0..n-1.
func (g *Gen) SkewedReadings(n int, skew float64) []Reading {
	out := make([]Reading, n)
	for i := range out {
		out[i] = g.SkewedReading(int64(i), skew)
	}
	return out
}

// RangeQuery is one synthetic range query [Lo, Hi].
type RangeQuery struct {
	Lo, Hi float64
}

// Mid returns the query midpoint.
func (q RangeQuery) Mid() float64 { return (q.Lo + q.Hi) / 2 }

// Len returns the interval length.
func (q RangeQuery) Len() float64 { return q.Hi - q.Lo }

// RangeQuery draws one range query with the paper's parameters.
func (g *Gen) RangeQuery() RangeQuery {
	mid := MeanLo + g.r.Float64()*(MeanHi-MeanLo)
	length := QueryLenMean + g.r.NormFloat64()*QueryLenStddev
	if length < 0.1 {
		length = 0.1
	}
	return RangeQuery{Lo: mid - length/2, Hi: mid + length/2}
}

// RangeQueries draws n range queries.
func (g *Gen) RangeQueries(n int) []RangeQuery {
	out := make([]RangeQuery, n)
	for i := range out {
		out[i] = g.RangeQuery()
	}
	return out
}

// EncodeReading serializes a reading for the storage engine: the rid
// followed by the pdf in the dist wire format. The representation chosen
// for Value (symbolic, histogram, discrete sampling) is what determines the
// record size — the storage-cost lever of Fig. 5.
func EncodeReading(rd Reading) []byte {
	buf := binary.AppendVarint(nil, rd.RID)
	return dist.AppendEncode(buf, rd.Value)
}

// DecodeReadingValue parses only the pdf of a reading record — the hot path
// of storage scans, avoiding the struct when the rid is not needed.
func DecodeReadingValue(rec []byte) (dist.Dist, error) {
	_, n := binary.Varint(rec)
	if n <= 0 {
		return nil, fmt.Errorf("workload: bad rid varint")
	}
	d, _, err := dist.Decode(rec[n:])
	return d, err
}
