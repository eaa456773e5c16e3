package dist

import (
	"encoding/binary"
	"fmt"
	"math"

	"probdb/internal/region"
)

// Wire tags for the on-disk encoding. The compactness differences between
// representations — a symbolic Gaussian is 17 bytes, a 25-point discrete
// sampling over 400 — are exactly what drives the I/O separation the paper
// measures in Fig. 5.
const (
	tagGaussian byte = iota + 1
	tagUniform
	tagExponential
	tagTriangular
	tagBernoulli
	tagBinomial
	tagPoisson
	tagGeometric
	tagDiscrete
	tagGrid
	tagFloored
	tagProduct
	tagMultiGaussian
)

// Encode serializes d into a compact binary form readable by Decode.
// Symbolic distributions are stored symbolically (parameters only), floored
// ones as base parameters plus kept regions — the paper's "[Gaus, Floor{…}]"
// representation on disk.
func Encode(d Dist) []byte {
	return AppendEncode(nil, d)
}

// AppendEncode appends the encoding of d to buf and returns the extended
// slice. It panics on distribution types it does not know (everything in
// this package is supported).
func AppendEncode(buf []byte, d Dist) []byte {
	switch v := d.(type) {
	case symCont:
		return appendContModel(buf, v.m)
	case symDisc:
		return appendDiscModel(buf, v.m)
	case Floored:
		buf = append(buf, tagFloored)
		buf = appendContModel(buf, v.m)
		return appendRegionSet(buf, v.keep)
	case *Discrete:
		buf = append(buf, tagDiscrete)
		buf = binary.AppendUvarint(buf, uint64(v.dim))
		buf = binary.AppendUvarint(buf, uint64(len(v.pts)))
		for _, p := range v.pts {
			for _, x := range p.X {
				buf = appendFloat(buf, x)
			}
			buf = appendFloat(buf, p.P)
		}
		return buf
	case *Grid:
		buf = append(buf, tagGrid)
		buf = binary.AppendUvarint(buf, uint64(len(v.axes)))
		for _, a := range v.axes {
			if a.Kind == KindContinuous {
				buf = append(buf, 0)
				buf = binary.AppendUvarint(buf, uint64(len(a.Edges)))
				for _, e := range a.Edges {
					buf = appendFloat(buf, e)
				}
			} else {
				buf = append(buf, 1)
				buf = binary.AppendUvarint(buf, uint64(len(a.Values)))
				for _, e := range a.Values {
					buf = appendFloat(buf, e)
				}
			}
		}
		for _, w := range v.w {
			buf = appendFloat(buf, w)
		}
		return buf
	case *MultiGaussian:
		buf = append(buf, tagMultiGaussian)
		buf = binary.AppendUvarint(buf, uint64(v.Dim()))
		for _, m := range v.mean {
			buf = appendFloat(buf, m)
		}
		for _, row := range v.cov {
			for _, c := range row {
				buf = appendFloat(buf, c)
			}
		}
		return buf
	case *Product:
		buf = append(buf, tagProduct)
		buf = appendFloat(buf, v.scale)
		buf = binary.AppendUvarint(buf, uint64(len(v.factors)))
		for _, f := range v.factors {
			buf = AppendEncode(buf, f)
		}
		return buf
	default:
		panic(fmt.Sprintf("dist: cannot encode %T", d))
	}
}

func appendContModel(buf []byte, m contModel) []byte {
	switch v := m.(type) {
	case Gaussian:
		buf = append(buf, tagGaussian)
		buf = appendFloat(buf, v.Mu)
		return appendFloat(buf, v.Sigma)
	case Uniform:
		buf = append(buf, tagUniform)
		buf = appendFloat(buf, v.Lo)
		return appendFloat(buf, v.Hi)
	case Exponential:
		buf = append(buf, tagExponential)
		return appendFloat(buf, v.Rate)
	case Triangular:
		buf = append(buf, tagTriangular)
		buf = appendFloat(buf, v.Lo)
		buf = appendFloat(buf, v.Mode)
		return appendFloat(buf, v.Hi)
	default:
		panic(fmt.Sprintf("dist: cannot encode continuous model %T", m))
	}
}

func appendDiscModel(buf []byte, m discModel) []byte {
	switch v := m.(type) {
	case Bernoulli:
		buf = append(buf, tagBernoulli)
		return appendFloat(buf, v.P)
	case Binomial:
		buf = append(buf, tagBinomial)
		buf = binary.AppendUvarint(buf, uint64(v.N))
		return appendFloat(buf, v.P)
	case Poisson:
		buf = append(buf, tagPoisson)
		return appendFloat(buf, v.Lambda)
	case Geometric:
		buf = append(buf, tagGeometric)
		return appendFloat(buf, v.P)
	default:
		panic(fmt.Sprintf("dist: cannot encode discrete model %T", m))
	}
}

func appendRegionSet(buf []byte, s region.Set) []byte {
	ivs := s.Intervals()
	buf = binary.AppendUvarint(buf, uint64(len(ivs)))
	for _, iv := range ivs {
		buf = appendFloat(buf, iv.Lo)
		buf = appendFloat(buf, iv.Hi)
		var flags byte
		if iv.LoOpen {
			flags |= 1
		}
		if iv.HiOpen {
			flags |= 2
		}
		buf = append(buf, flags)
	}
	return buf
}

func appendFloat(buf []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
}

// decoder walks an encoded buffer.
type decoder struct {
	buf []byte
	off int
}

func (d *decoder) err(format string, args ...any) error {
	return fmt.Errorf("dist: decode at offset %d: %s", d.off, fmt.Sprintf(format, args...))
}

func (d *decoder) byte() (byte, error) {
	if d.off >= len(d.buf) {
		return 0, d.err("unexpected end of buffer")
	}
	b := d.buf[d.off]
	d.off++
	return b, nil
}

func (d *decoder) float() (float64, error) {
	if d.off+8 > len(d.buf) {
		return 0, d.err("unexpected end of buffer")
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v, nil
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, d.err("bad uvarint")
	}
	d.off += n
	return v, nil
}

// Decode deserializes one distribution from buf, returning it and the number
// of bytes consumed.
func Decode(buf []byte) (Dist, int, error) {
	d := &decoder{buf: buf}
	dist, err := d.decode(true)
	if err != nil {
		return nil, 0, err
	}
	return dist, d.off, nil
}

// Check validates the distribution encoded at the head of buf exactly as
// Decode does and returns the number of bytes it spans, without building the
// Dist: it runs Decode's own walk, so the two accept the same inputs. The
// Gaussian, Uniform, Discrete and floored encodings are checked without
// allocating; every other tag is decoded and dropped.
func Check(buf []byte) (int, error) {
	d := decoder{buf: buf}
	if _, err := d.decode(false); err != nil {
		return 0, err
	}
	return d.off, nil
}

// maxDecodeCount bounds repeated-element counts so a corrupted length prefix
// cannot trigger an enormous allocation.
const maxDecodeCount = 1 << 26

func (d *decoder) count() (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v > maxDecodeCount {
		return 0, d.err("count %d exceeds limit", v)
	}
	return int(v), nil
}

// fits reports an error unless n elements of at least size bytes each can
// still follow in the buffer — checked before a count sizes an allocation.
func (d *decoder) fits(n, size int) error {
	if n*size > len(d.buf)-d.off {
		return d.err("unexpected end of buffer")
	}
	return nil
}

// decode reads one distribution. With build false it only checks: the
// continuous models, Discrete and floored bodies are walked without
// allocating and nil is returned; every other tag is built regardless.
func (d *decoder) decode(build bool) (Dist, error) {
	tag, err := d.byte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case tagGaussian, tagUniform, tagExponential, tagTriangular:
		m, err := d.contModel(tag, build)
		if err != nil || !build {
			return nil, err
		}
		return symCont{m}, nil
	case tagBernoulli:
		p, err := d.float()
		if err != nil {
			return nil, err
		}
		if !(p >= 0 && p <= 1) {
			return nil, d.err("bernoulli p %v", p)
		}
		return NewBernoulli(p), nil
	case tagBinomial:
		n, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if n > maxDecodeCount {
			return nil, d.err("binomial n %d exceeds limit", n)
		}
		p, err := d.float()
		if err != nil {
			return nil, err
		}
		if !(p >= 0 && p <= 1) {
			return nil, d.err("binomial p %v", p)
		}
		return NewBinomial(int(n), p), nil
	case tagPoisson:
		l, err := d.float()
		if err != nil {
			return nil, err
		}
		// The enumeration materializes ~lambda points; unbounded lambda from
		// a corrupt payload would overflow the point-count arithmetic.
		if !(l >= 0 && l <= float64(maxDecodeCount)) {
			return nil, d.err("poisson lambda %v", l)
		}
		return NewPoisson(l), nil
	case tagGeometric:
		p, err := d.float()
		if err != nil {
			return nil, err
		}
		// Enumeration needs ~34.5/p points to reach the 1e-15 tail; a
		// denormal p from a corrupt payload would overflow the limit
		// arithmetic (and no encodable Geometric is that small — building
		// one would have required the same impossible enumeration).
		if !(p > 1e-6 && p <= 1) {
			return nil, d.err("geometric p %v", p)
		}
		return NewGeometric(p), nil
	case tagFloored:
		mtag, err := d.byte()
		if err != nil {
			return nil, err
		}
		m, err := d.contModel(mtag, build)
		if err != nil {
			return nil, err
		}
		n, err := d.count()
		if err != nil {
			return nil, err
		}
		if err := d.fits(n, 17); err != nil {
			return nil, err
		}
		var ivs []region.Interval
		if build {
			ivs = make([]region.Interval, n)
		}
		for i := 0; i < n; i++ {
			iv, err := d.interval()
			if err != nil {
				return nil, err
			}
			if build {
				ivs[i] = iv
			}
		}
		if !build {
			return nil, nil
		}
		// Encode writes a normalized set, which the decoder keeps as is;
		// anything else is normalized, as NewSet would for any caller.
		keep, ok := region.SetOf(ivs)
		if !ok {
			keep = region.NewSet(ivs...)
		}
		return newFloored(m, keep), nil
	case tagDiscrete:
		dim, err := d.count()
		if err != nil {
			return nil, err
		}
		n, err := d.count()
		if err != nil {
			return nil, err
		}
		if dim < 1 {
			return nil, d.err("discrete dim %d", dim)
		}
		if err := d.fits(n, (dim+1)*8); err != nil {
			return nil, err
		}
		// One coordinate block for every point, owned by the result: the
		// points arrive sorted and merged (Encode wrote them that way), so
		// newDiscrete validates them in place without copying or sorting.
		var (
			xs  []float64
			pts []Point
		)
		if build {
			xs = make([]float64, n*dim)
			pts = make([]Point, n)
		}
		var mass float64
		for i := 0; i < n; i++ {
			for j := 0; j < dim; j++ {
				x, err := d.float()
				if err != nil {
					return nil, err
				}
				if math.IsNaN(x) || math.IsInf(x, 0) {
					return nil, d.err("discrete point coordinate %v", x)
				}
				if build {
					xs[i*dim+j] = x
				}
			}
			p, err := d.float()
			if err != nil {
				return nil, err
			}
			if !(p >= 0 && p <= 1) {
				return nil, d.err("discrete point probability %v", p)
			}
			mass += p
			if build {
				pts[i] = Point{X: xs[i*dim : (i+1)*dim : (i+1)*dim], P: p}
			}
		}
		// Slightly tighter than the constructor's 1e-9 tolerance so that
		// summation-order differences cannot slip through to its panic.
		if mass > 1+1e-10 {
			return nil, d.err("discrete mass %v exceeds 1", mass)
		}
		if !build {
			return nil, nil
		}
		return newDiscrete(dim, pts), nil
	case tagGrid:
		na, err := d.count()
		if err != nil {
			return nil, err
		}
		if na < 1 {
			return nil, d.err("grid axis count %d", na)
		}
		if err := d.fits(na, 2); err != nil {
			return nil, err
		}
		axes := make([]Axis, na)
		cells := 1
		for i := range axes {
			kind, err := d.byte()
			if err != nil {
				return nil, err
			}
			n, err := d.count()
			if err != nil {
				return nil, err
			}
			if err := d.fits(n, 8); err != nil {
				return nil, err
			}
			vals := make([]float64, n)
			for j := range vals {
				if vals[j], err = d.float(); err != nil {
					return nil, err
				}
			}
			if kind == 0 {
				axes[i] = Axis{Kind: KindContinuous, Edges: vals}
			} else {
				axes[i] = Axis{Kind: KindDiscrete, Values: vals}
			}
			if err := axes[i].validate(); err != nil {
				return nil, d.err("%v", err)
			}
			cells *= axes[i].Cells()
			// Checked per axis: a deferred check would let the product
			// overflow int across axes and reach make() negative.
			if cells > maxDecodeCount {
				return nil, d.err("grid cell count %d exceeds limit", cells)
			}
		}
		if err := d.fits(cells, 8); err != nil {
			return nil, err
		}
		w := make([]float64, cells)
		var mass float64
		for i := range w {
			if w[i], err = d.float(); err != nil {
				return nil, err
			}
			if !(w[i] >= 0 && w[i] <= 1) {
				return nil, d.err("grid weight %v", w[i])
			}
			mass += w[i]
		}
		if mass > 1+1e-10 {
			return nil, d.err("grid mass %v exceeds 1", mass)
		}
		return NewGrid(axes, w), nil
	case tagMultiGaussian:
		k, err := d.count()
		if err != nil {
			return nil, err
		}
		if k < 1 || k > 64 {
			return nil, d.err("multivariate gaussian dim %d", k)
		}
		mean := make([]float64, k)
		for i := range mean {
			if mean[i], err = d.float(); err != nil {
				return nil, err
			}
		}
		cov := make([][]float64, k)
		for i := range cov {
			cov[i] = make([]float64, k)
			for j := range cov[i] {
				if cov[i][j], err = d.float(); err != nil {
					return nil, err
				}
			}
		}
		mg, err := NewMultiGaussian(mean, cov)
		if err != nil {
			return nil, d.err("%v", err)
		}
		return mg, nil
	case tagProduct:
		scale, err := d.float()
		if err != nil {
			return nil, err
		}
		if !(scale >= 0 && scale <= 1) {
			return nil, d.err("product scale %v", scale)
		}
		n, err := d.count()
		if err != nil {
			return nil, err
		}
		if n < 1 {
			return nil, d.err("product factor count %d", n)
		}
		if err := d.fits(n, 1); err != nil {
			return nil, err
		}
		factors := make([]Dist, n)
		for i := range factors {
			if factors[i], err = d.decode(true); err != nil {
				return nil, err
			}
		}
		return newProduct(factors, scale), nil
	default:
		return nil, d.err("unknown tag %d", tag)
	}
}

// contModel reads the continuous model tag names and checks its
// parameters; with build false it returns no model.
func (d *decoder) contModel(tag byte, build bool) (contModel, error) {
	switch tag {
	case tagGaussian:
		mu, err := d.float()
		if err != nil {
			return nil, err
		}
		sigma, err := d.float()
		if err != nil {
			return nil, err
		}
		if !(sigma > 0) || math.IsInf(sigma, 0) || math.IsNaN(mu) || math.IsInf(mu, 0) {
			return nil, d.err("gaussian params %v/%v", mu, sigma)
		}
		if !build {
			return nil, nil
		}
		return Gaussian{Mu: mu, Sigma: sigma}, nil
	case tagUniform:
		lo, err := d.float()
		if err != nil {
			return nil, err
		}
		hi, err := d.float()
		if err != nil {
			return nil, err
		}
		if !(lo < hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
			return nil, d.err("uniform bounds %v..%v", lo, hi)
		}
		if !build {
			return nil, nil
		}
		return Uniform{Lo: lo, Hi: hi}, nil
	case tagExponential:
		rate, err := d.float()
		if err != nil {
			return nil, err
		}
		if !(rate > 0) || math.IsInf(rate, 0) {
			return nil, d.err("exponential rate %v", rate)
		}
		if !build {
			return nil, nil
		}
		return Exponential{Rate: rate}, nil
	case tagTriangular:
		lo, err := d.float()
		if err != nil {
			return nil, err
		}
		mode, err := d.float()
		if err != nil {
			return nil, err
		}
		hi, err := d.float()
		if err != nil {
			return nil, err
		}
		if !(lo < hi && lo <= mode && mode <= hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
			return nil, d.err("triangular params %v/%v/%v", lo, mode, hi)
		}
		if !build {
			return nil, nil
		}
		return Triangular{Lo: lo, Mode: mode, Hi: hi}, nil
	default:
		return nil, d.err("unknown continuous model tag %d", tag)
	}
}

// interval reads one kept interval of a floored encoding. Its flag byte
// may set only the two bits appendRegionSet writes (open low, open high
// end), so every accepted interval re-encodes to the bytes it came from.
func (d *decoder) interval() (region.Interval, error) {
	lo, err := d.float()
	if err != nil {
		return region.Interval{}, err
	}
	hi, err := d.float()
	if err != nil {
		return region.Interval{}, err
	}
	flags, err := d.byte()
	if err != nil {
		return region.Interval{}, err
	}
	if math.IsNaN(lo) || math.IsNaN(hi) {
		return region.Interval{}, d.err("region bounds %v..%v", lo, hi)
	}
	if flags&^3 != 0 {
		return region.Interval{}, d.err("interval flags %#x", flags)
	}
	return region.Interval{Lo: lo, Hi: hi, LoOpen: flags&1 != 0, HiOpen: flags&2 != 0}, nil
}

// EncodedSize returns the number of bytes Encode(d) produces. It is the
// tuple-size input of the Fig. 5 storage model.
func EncodedSize(d Dist) int { return len(Encode(d)) }
