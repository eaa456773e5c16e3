package colpdf

import (
	"encoding/binary"
	"fmt"
	"math"

	"probdb/internal/dist"
)

// Binary block format (version 1), little-endian floats, uvarint counts:
//
//	byte    version (1)
//	uvarint n, dim, numRuns
//	n × f64 existence-mass lane
//	per run:
//	  byte fam, uvarint N           (Start is implicit: runs are contiguous)
//	  Gaussian/Uniform:   2 lanes × N × f64
//	  Exponential:        1 lane × N × f64
//	  Poisson/Geometric:  uvarint dictLen, dictLen × f64 params,
//	                      N × uvarint dict indices (the parameter lane and
//	                      shared point supports are rebuilt from the dict —
//	                      enumeration is deterministic)
//	  Grid:               uvarint dictLen, dictLen × dist-encoded grids,
//	                      N × uvarint dict indices
//	  Fallback:           N × dist-encoded distributions
//
// Decoding validates every parameter with the same limits the hardened
// internal/dist codec enforces (finite mu, sigma > 0, lo < hi, rate > 0,
// bounded lambda, non-denormal geometric p), bounds every count, and rejects
// malformed input with *CorruptBlockError — never a panic, never a block
// that would later panic a kernel.

const (
	codecVersion = 1
	// maxCount mirrors internal/dist's maxDecodeCount: no hostile header can
	// make the decoder allocate more than this many elements.
	maxCount = 1 << 26
	// maxLambda bounds Poisson dictionary parameters: decoding re-enumerates
	// the point support from lambda (≈ lambda points per dictionary slot),
	// so the bound caps what a hostile block can make the decoder allocate.
	// Larger lambdas fall back to scalar evaluation at encode time.
	maxLambda = 1e4
	// minGeomP mirrors the dist decoder's denormal-p overflow guard.
	minGeomP = 1e-6
)

// CorruptBlockError reports malformed columnar input: where decoding
// stopped and why.
type CorruptBlockError struct {
	Off int
	Msg string
}

func (e *CorruptBlockError) Error() string {
	return fmt.Sprintf("colpdf: decode at offset %d: %s", e.Off, e.Msg)
}

// UnencodableError reports a fallback distribution the dist codec has no
// representation for, surfaced by Marshal instead of the codec's panic.
type UnencodableError struct {
	Dist string
}

func (e *UnencodableError) Error() string {
	return fmt.Sprintf("colpdf: fallback distribution %s is not encodable", e.Dist)
}

// Marshal serializes the block. Fallback runs holding distributions the
// dist codec cannot represent return *UnencodableError.
func Marshal(b *Block) ([]byte, error) {
	buf := []byte{codecVersion}
	buf = binary.AppendUvarint(buf, uint64(b.n))
	buf = binary.AppendUvarint(buf, uint64(b.dim))
	buf = binary.AppendUvarint(buf, uint64(len(b.runs)))
	for _, m := range b.mass {
		buf = appendFloat(buf, m)
	}
	for i := range b.runs {
		r := &b.runs[i]
		buf = append(buf, byte(r.Fam))
		buf = binary.AppendUvarint(buf, uint64(r.N))
		switch r.Fam {
		case FamGaussian, FamUniform, FamExponential:
			for _, lane := range r.Lanes {
				for _, v := range lane {
					buf = appendFloat(buf, v)
				}
			}
		case FamPoisson, FamGeometric:
			buf = binary.AppendUvarint(buf, uint64(len(r.Params)))
			for _, p := range r.Params {
				buf = appendFloat(buf, p)
			}
			for _, slot := range r.DictIdx {
				buf = binary.AppendUvarint(buf, uint64(slot))
			}
		case FamGrid:
			buf = binary.AppendUvarint(buf, uint64(len(r.Grids)))
			var err error
			for _, g := range r.Grids {
				if buf, err = appendDist(buf, g); err != nil {
					return nil, err
				}
			}
			for _, slot := range r.DictIdx {
				buf = binary.AppendUvarint(buf, uint64(slot))
			}
		default:
			var err error
			for _, d := range r.FB {
				if buf, err = appendDist(buf, d); err != nil {
					return nil, err
				}
			}
		}
	}
	return buf, nil
}

// appendDist encodes one distribution, converting the dist codec's
// unknown-type panic into a typed error.
func appendDist(buf []byte, d dist.Dist) (out []byte, err error) {
	defer func() {
		if recover() != nil {
			out, err = nil, &UnencodableError{Dist: d.String()}
		}
	}()
	return dist.AppendEncode(buf, d), nil
}

// blockDecoder carries the cursor and first error through decoding.
type blockDecoder struct {
	buf []byte
	off int
	err error
}

func (d *blockDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = &CorruptBlockError{Off: d.off, Msg: fmt.Sprintf(format, args...)}
	}
}

func (d *blockDecoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail("truncated")
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

func (d *blockDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.off += n
	return v
}

// count reads a uvarint bounded by limit — the allocation guard.
func (d *blockDecoder) count(what string, limit uint64) int {
	v := d.uvarint()
	if d.err == nil && v > limit {
		d.fail("%s %d exceeds limit %d", what, v, limit)
	}
	return int(v)
}

func (d *blockDecoder) float() float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.fail("truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v
}

func (d *blockDecoder) dist() dist.Dist {
	if d.err != nil {
		return nil
	}
	v, n, err := dist.Decode(d.buf[d.off:])
	if err != nil {
		d.fail("embedded distribution: %v", err)
		return nil
	}
	d.off += n
	return v
}

// dictIdx reads N dictionary indices, each < dictLen.
func (d *blockDecoder) dictIdx(n, dictLen int) []int32 {
	idx := make([]int32, 0, n)
	for j := 0; j < n; j++ {
		v := d.uvarint()
		if d.err != nil {
			return nil
		}
		if v >= uint64(dictLen) {
			d.fail("dictionary index %d out of range (dict has %d slots)", v, dictLen)
			return nil
		}
		idx = append(idx, int32(v))
	}
	return idx
}

// Unmarshal decodes a block, validating every parameter and count. The
// returned block is safe for the kernels: no index can run off a lane, no
// parameter violates its family's domain.
func Unmarshal(buf []byte) (*Block, error) {
	d := &blockDecoder{buf: buf}
	if v := d.byte(); d.err == nil && v != codecVersion {
		d.fail("unsupported version %d", v)
	}
	n := d.count("tuple count", maxCount)
	dim := d.count("dimension", 1<<16)
	numRuns := d.count("run count", maxCount)
	if d.err == nil && numRuns > n {
		d.fail("%d runs cannot cover %d tuples", numRuns, n)
	}
	if d.err != nil {
		return nil, d.err
	}
	b := &Block{n: n, dim: dim, mass: make([]float64, 0, n)}
	for i := 0; i < n; i++ {
		m := d.float()
		if d.err != nil {
			return nil, d.err
		}
		if !(m >= 0 && m <= 1) {
			d.fail("existence mass %v outside [0,1]", m)
			return nil, d.err
		}
		b.mass = append(b.mass, m)
	}
	start := 0
	for ri := 0; ri < numRuns; ri++ {
		fam := Family(d.byte())
		if d.err == nil && fam >= famCount {
			d.fail("unknown family %d", fam)
		}
		rn := d.count("run length", uint64(n))
		if d.err != nil {
			return nil, d.err
		}
		if rn < 1 || start+rn > n {
			d.fail("run of %d tuples at %d overflows %d-tuple block", rn, start, n)
			return nil, d.err
		}
		run := Run{Fam: fam, Start: start, N: rn}
		switch fam {
		case FamGaussian, FamUniform, FamExponential:
			run.Lanes = make([][]float64, fam.lanes())
			for li := range run.Lanes {
				lane := make([]float64, rn)
				for j := range lane {
					lane[j] = d.float()
				}
				run.Lanes[li] = lane
			}
			if d.err != nil {
				return nil, d.err
			}
			if err := validateContinuous(&run, d); err != nil {
				return nil, err
			}
		case FamPoisson, FamGeometric:
			dictLen := d.count("dictionary size", uint64(rn))
			if d.err == nil && dictLen < 1 {
				d.fail("empty dictionary")
			}
			params := make([]float64, dictLen)
			for j := range params {
				params[j] = d.float()
			}
			if d.err != nil {
				return nil, d.err
			}
			for _, p := range params {
				if fam == FamPoisson && !(p >= 0 && p <= maxLambda) {
					d.fail("poisson lambda %v outside [0, %g]", p, float64(maxLambda))
					return nil, d.err
				}
				if fam == FamGeometric && !(p > minGeomP && p <= 1) {
					d.fail("geometric p %v outside (%g, 1]", p, float64(minGeomP))
					return nil, d.err
				}
			}
			run.DictIdx = d.dictIdx(rn, dictLen)
			if d.err != nil {
				return nil, d.err
			}
			// Rebuild the parameter lane and shared point supports from the
			// dictionary; enumeration is deterministic, so the points equal
			// the original tuples' backings element-wise.
			run.Pts = make([][]dist.Point, dictLen)
			for j, p := range params {
				if fam == FamPoisson {
					run.Pts[j] = dist.BackingPoints(dist.NewPoisson(p))
				} else {
					run.Pts[j] = dist.BackingPoints(dist.NewGeometric(p))
				}
			}
			lane := make([]float64, rn)
			for j, slot := range run.DictIdx {
				lane[j] = params[slot]
			}
			run.Lanes = [][]float64{lane}
			run.Params = params
		case FamGrid:
			dictLen := d.count("dictionary size", uint64(rn))
			if d.err == nil && dictLen < 1 {
				d.fail("empty dictionary")
			}
			if d.err != nil {
				return nil, d.err
			}
			run.Grids = make([]*dist.Grid, 0, dictLen)
			for j := 0; j < dictLen; j++ {
				dec := d.dist()
				if d.err != nil {
					return nil, d.err
				}
				g, ok := dec.(*dist.Grid)
				if !ok || g.Dim() != 1 {
					d.fail("grid dictionary slot %d holds %T", j, dec)
					return nil, d.err
				}
				run.Grids = append(run.Grids, g)
			}
			run.DictIdx = d.dictIdx(rn, dictLen)
			if d.err != nil {
				return nil, d.err
			}
		default:
			run.FB = make([]dist.Dist, 0, rn)
			for j := 0; j < rn; j++ {
				fd := d.dist()
				if d.err != nil {
					return nil, d.err
				}
				if fd.Dim() > 1 && dim >= fd.Dim() {
					d.fail("fallback slot %d has %d dims but block marginal is %d", j, fd.Dim(), dim)
					return nil, d.err
				}
				run.FB = append(run.FB, fd)
			}
		}
		b.runs = append(b.runs, run)
		start += rn
	}
	if d.err == nil && start != n {
		d.fail("runs cover %d of %d tuples", start, n)
	}
	if d.err == nil && d.off != len(buf) {
		d.fail("%d trailing bytes", len(buf)-d.off)
	}
	if d.err != nil {
		return nil, d.err
	}
	b.finish()
	return b, nil
}

// validateContinuous applies the dist codec's parameter limits to decoded
// lanes: finite mu and sigma > 0, lo < hi, rate > 0 and finite.
func validateContinuous(run *Run, d *blockDecoder) error {
	for j := 0; j < run.N; j++ {
		switch run.Fam {
		case FamGaussian:
			mu, sg := run.Lanes[0][j], run.Lanes[1][j]
			if !(sg > 0) || math.IsInf(sg, 0) || math.IsNaN(mu) || math.IsInf(mu, 0) {
				d.fail("gaussian (mu=%v, sigma=%v) invalid", mu, sg)
				return d.err
			}
		case FamUniform:
			lo, hi := run.Lanes[0][j], run.Lanes[1][j]
			if !(lo < hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
				d.fail("uniform (lo=%v, hi=%v) invalid", lo, hi)
				return d.err
			}
		case FamExponential:
			rate := run.Lanes[0][j]
			if !(rate > 0) || math.IsInf(rate, 0) {
				d.fail("exponential rate %v invalid", rate)
				return d.err
			}
		}
	}
	return nil
}

func appendFloat(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}
