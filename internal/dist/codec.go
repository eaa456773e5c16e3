package dist

import (
	"encoding/binary"
	"fmt"
	"math"

	"probdb/internal/numeric"
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
// symbolic, Discrete and floored encodings are checked without allocating;
// grids, products and multivariate Gaussians are decoded and dropped.
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

// param wraps a family rule's *ParamError, if any, with the offset it was
// found at.
func (d *decoder) param(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("dist: decode at offset %d: %w", d.off, err)
}

// params reads a model's n (at most 3) float parameters.
func (d *decoder) params(n int) (v [3]float64, err error) {
	for i := 0; i < n && err == nil; i++ {
		v[i], err = d.float()
	}
	return v, err
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
// symbolic models, Discrete and floored bodies are walked without
// allocating and nil is returned; every other tag is built regardless. Each
// family's parameters go through the same check its Build* constructor
// runs.
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
		v, err := d.params(1)
		return discChecked(d, Bernoulli{P: v[0]}, err, build)
	case tagBinomial:
		n, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		v, err := d.params(1)
		return discChecked(d, Binomial{N: int(min(n, 1<<62)), P: v[0]}, err, build)
	case tagPoisson:
		v, err := d.params(1)
		return discChecked(d, Poisson{Lambda: v[0]}, err, build)
	case tagGeometric:
		v, err := d.params(1)
		return discChecked(d, Geometric{P: v[0]}, err, build)
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
		// One coordinate block for every point, owned by the result. The
		// points must arrive as Encode writes them — ascending, distinct,
		// none of probability 0 — so the mass summed here is the mass
		// newDiscrete sums, and it validates them in place without copying
		// or sorting.
		var (
			xs   []float64
			pts  []Point
			mass numeric.KahanSum
		)
		if build {
			xs = make([]float64, n*dim)
			pts = make([]Point, n)
		}
		for i := 0; i < n; i++ {
			at := d.off
			for j := 0; j < dim; j++ {
				x, err := d.float()
				if err == nil {
					err = d.param(checkCoord(x))
				}
				if err != nil {
					return nil, err
				}
				if build {
					xs[i*dim+j] = x
				}
			}
			if i > 0 && !d.ascends(at-(dim+1)*8, at, dim) {
				return nil, d.err("discrete point %d does not follow point %d", i, i-1)
			}
			p, err := d.float()
			if err == nil {
				err = d.param(checkProb("DISCRETE", p))
			}
			if err != nil {
				return nil, err
			}
			if p == 0 {
				return nil, d.err("discrete point %d has probability 0", i)
			}
			mass.Add(p)
			if build {
				pts[i] = Point{X: xs[i*dim : (i+1)*dim : (i+1)*dim], P: p}
			}
		}
		if err := d.param(checkMass("DISCRETE", mass.Value())); err != nil || !build {
			return nil, err
		}
		dd, err := newDiscrete(dim, pts)
		if err != nil {
			return nil, d.param(err)
		}
		return dd, nil
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
			if err := d.param(axes[i].validate()); err != nil {
				return nil, err
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
		for i := range w {
			if w[i], err = d.float(); err != nil {
				return nil, err
			}
		}
		g, err := checkedGrid(axes, w)
		if err != nil {
			return nil, d.param(err)
		}
		return g, nil
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
			return nil, d.param(err)
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
// parameters with the family's rule; with build false it returns no model.
func (d *decoder) contModel(tag byte, build bool) (contModel, error) {
	switch tag {
	case tagGaussian:
		v, err := d.params(2)
		return contChecked(d, Gaussian{Mu: v[0], Sigma: v[1]}, err, build)
	case tagUniform:
		v, err := d.params(2)
		return contChecked(d, Uniform{Lo: v[0], Hi: v[1]}, err, build)
	case tagExponential:
		v, err := d.params(1)
		return contChecked(d, Exponential{Rate: v[0]}, err, build)
	case tagTriangular:
		v, err := d.params(3)
		return contChecked(d, Triangular{Lo: v[0], Mode: v[1], Hi: v[2]}, err, build)
	default:
		return nil, d.err("unknown continuous model tag %d", tag)
	}
}

// contChecked applies m's family rule to the model just read (unless
// reading it failed with err) and returns m only when building.
func contChecked[M contModel](d *decoder, m M, err error, build bool) (contModel, error) {
	if err == nil {
		err = d.param(m.check())
	}
	if err != nil || !build {
		return nil, err
	}
	return m, nil
}

// discChecked is contChecked for a symbolic discrete model.
func discChecked[M discModel](d *decoder, m M, err error, build bool) (Dist, error) {
	if err == nil {
		err = d.param(m.check())
	}
	if err != nil || !build {
		return nil, err
	}
	return newSymDisc(m), nil
}

// ascends reports whether the point whose coordinates start at offset b
// follows the one at offset a in cmpPoint's order. Both are checked finite.
func (d *decoder) ascends(a, b, dim int) bool {
	for j := 0; j < dim; j++ {
		x := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[a+8*j:]))
		y := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[b+8*j:]))
		if x != y {
			return x < y
		}
	}
	return false
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
