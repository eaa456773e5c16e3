package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// This file is the seeded generator and the closed-form oracle. The
// generator draws every parameter on a 1e-4 decimal grid and prints it with
// four decimals, so the float64 the server parses is bit-identical to the
// one the oracle holds. Query bounds sit on the odd 5e-5 grid, so a bound
// never equals a stored value and strict/closed comparisons cannot differ.
// The oracle derives expected answers from the generated parameters alone
// (interval mass of Gaussian, Uniform and Discrete pdfs in closed form); it
// never executes a query, so it is not a second engine path.

// eps is the tie band of the oracle: a statement whose answer depends on a
// probability within eps of its threshold is re-drawn by the generator.
const eps = 1e-9

type pdfKind uint8

const (
	kindGauss pdfKind = iota
	kindUnif
	kindDisc    // three points, total mass 1
	kindPartial // three points, total mass < 1: the tuple may not exist
)

// pdf is one generated uncertain value. Gaussian: a = mean, b = variance.
// Uniform: a = lo, b = hi. Discrete: points v with probabilities p.
type pdf struct {
	kind pdfKind
	a, b float64
	v, p [3]float64
}

// q4 rounds to the 1e-4 grid; the result prints exactly with %.4f.
func q4(x float64) float64 { return math.Round(x*1e4) / 1e4 }

// bound places a query constant on the odd 5e-5 grid (never a stored value).
func bound(x float64) float64 { return (math.Floor(x*1e4) + 0.5) / 1e4 }

func f4(x float64) string { return strconv.FormatFloat(x, 'f', 4, 64) }
func f5(x float64) string { return strconv.FormatFloat(x, 'f', 5, 64) }

// Dyadic probability menus: their sums are exact in binary floating point,
// so a full pdf has mass exactly 1 on both sides of the socket.
var (
	fullMenu    = [][3]float64{{0.25, 0.5, 0.25}, {0.5, 0.25, 0.25}, {0.125, 0.75, 0.125}, {0.25, 0.25, 0.5}}
	partialMenu = [][3]float64{{0.25, 0.25, 0.125}, {0.5, 0.25, 0.125}, {0.125, 0.5, 0.25}, {0.25, 0.125, 0.125}}
)

// genPDF draws the 60/20/10/10 family mix of the issue.
func genPDF(rng *rand.Rand) pdf {
	u := rng.Float64()
	m := q4(20 + 60*rng.Float64())
	switch {
	case u < 0.6:
		return pdf{kind: kindGauss, a: m, b: q4(4 + 32*rng.Float64())}
	case u < 0.8:
		w := q4(1 + 9*rng.Float64())
		return pdf{kind: kindUnif, a: q4(m - w), b: q4(m + w)}
	default:
		d := q4(0.5 + 2.5*rng.Float64())
		p := pdf{kind: kindDisc, v: [3]float64{q4(m - d), m, q4(m + d)}}
		if u < 0.9 {
			p.p = fullMenu[rng.Intn(len(fullMenu))]
		} else {
			p.kind = kindPartial
			p.p = partialMenu[rng.Intn(len(partialMenu))]
		}
		return p
	}
}

func (d pdf) sql() string {
	switch d.kind {
	case kindGauss:
		return "GAUSSIAN(" + f4(d.a) + ", " + f4(d.b) + ")"
	case kindUnif:
		return "UNIFORM(" + f4(d.a) + ", " + f4(d.b) + ")"
	default:
		var sb strings.Builder
		sb.WriteString("DISCRETE(")
		for i := range d.v {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(f4(d.v[i]) + ":" + strconv.FormatFloat(d.p[i], 'f', -1, 64))
		}
		sb.WriteString(")")
		return sb.String()
	}
}

// mass is the probability that the tuple exists.
func (d pdf) mass() float64 {
	if d.kind == kindDisc || d.kind == kindPartial {
		return d.p[0] + d.p[1] + d.p[2]
	}
	return 1
}

func phi(z float64) float64 { return 0.5 * math.Erfc(-z/math.Sqrt2) }

// cdf is Pr(X <= x and the tuple exists).
func (d pdf) cdf(x float64) float64 {
	switch d.kind {
	case kindGauss:
		return phi((x - d.a) / math.Sqrt(d.b))
	case kindUnif:
		switch {
		case x <= d.a:
			return 0
		case x >= d.b:
			return 1
		}
		return (x - d.a) / (d.b - d.a)
	default:
		var s float64
		for i, v := range d.v {
			if v <= x {
				s += d.p[i]
			}
		}
		return s
	}
}

// massIn is Pr(lo <= X <= hi and the tuple exists). Bounds come from bound(),
// so they never coincide with a discrete point.
func (d pdf) massIn(lo, hi float64) float64 {
	if d.kind == kindGauss {
		// Difference of upper tails where both bounds lie right of the mean
		// keeps precision that 1-1 would lose.
		s := math.Sqrt(d.b)
		zl, zh := (lo-d.a)/s, (hi-d.a)/s
		if zl > 0 {
			return phi(-zl) - phi(-zh)
		}
		return phi(zh) - phi(zl)
	}
	return d.cdf(hi) - d.cdf(lo)
}

// mean is E[X · 1(exists)], the tuple's contribution to the mean of SUM.
func (d pdf) mean() float64 {
	switch d.kind {
	case kindGauss:
		return d.a
	case kindUnif:
		return (d.a + d.b) / 2
	default:
		return d.v[0]*d.p[0] + d.v[1]*d.p[1] + d.v[2]*d.p[2]
	}
}

// ltLowerBound is a lower bound on Pr(X < Y) for independent X, Y:
// Pr(X <= t)·Pr(Y > t) maximised over a few cut points t.
func ltLowerBound(x, y pdf) float64 {
	best := 0.0
	for _, t := range []float64{x.center(), y.center(), (x.center() + y.center()) / 2} {
		if v := x.cdf(t) * (y.mass() - y.cdf(t)); v > best {
			best = v
		}
	}
	return best
}

func (d pdf) center() float64 {
	switch d.kind {
	case kindGauss:
		return d.a
	case kindUnif:
		return (d.a + d.b) / 2
	default:
		return d.v[1]
	}
}

// row is one generated tuple of the readings-shaped schema
// (rid INT, sensor INT, value FLOAT UNCERTAIN, temp FLOAT UNCERTAIN, score FLOAT).
type row struct {
	rid, sensor int64
	value, temp pdf
	score       float64
}

const readingsCols = "(rid INT, sensor INT, value FLOAT UNCERTAIN, temp FLOAT UNCERTAIN, score FLOAT)"

func genRow(rng *rand.Rand, rid int64, sensors int) row {
	return row{
		rid:    rid,
		sensor: int64(rng.Intn(sensors)),
		value:  genPDF(rng),
		temp:   genPDF(rng),
		score:  q4(1000 * rng.Float64()),
	}
}

func genRows(rng *rand.Rand, firstRid int64, n, sensors int) []row {
	out := make([]row, n)
	for i := range out {
		out[i] = genRow(rng, firstRid+int64(i), sensors)
	}
	return out
}

func (r row) tuple() string {
	return "(" + strconv.FormatInt(r.rid, 10) + ", " + strconv.FormatInt(r.sensor, 10) + ", " +
		r.value.sql() + ", " + r.temp.sql() + ", " + f4(r.score) + ")"
}

// insertSQL renders one INSERT carrying the given rows.
func insertSQL(table string, rows []row) string {
	var sb strings.Builder
	sb.Grow(len(rows) * 96)
	sb.WriteString("INSERT INTO " + table + " (rid, sensor, value, temp, score) VALUES ")
	for i, r := range rows {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(r.tuple())
	}
	return sb.String()
}

// loadSQL splits rows into INSERT statements of at most batch rows.
func loadSQL(table string, rows []row, batch int) []string {
	var out []string
	for i := 0; i < len(rows); i += batch {
		j := i + batch
		if j > len(rows) {
			j = len(rows)
		}
		out = append(out, insertSQL(table, rows[i:j]))
	}
	return out
}

// sensor is one tuple of sensors(sid INT, drift FLOAT UNCERTAIN, zone INT).
type sensor struct {
	sid   int64
	drift pdf
	zone  int64
}

func genSensors(rng *rand.Rand, n int) []sensor {
	out := make([]sensor, n)
	for i := range out {
		out[i] = sensor{sid: int64(i), drift: genPDF(rng), zone: int64(rng.Intn(10))}
	}
	return out
}

func sensorsSQL(ss []sensor) string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO sensors (sid, drift, zone) VALUES ")
	for i, s := range ss {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %s, %d)", s.sid, s.drift.sql(), s.zone)
	}
	return sb.String()
}

// expectKind says how a statement's answer is compared with the oracle.
type expectKind uint8

const (
	expectNone     expectKind = iota // BEGIN/COMMIT/DDL: must not fail
	expectAffected                   // DML: Affected == n
	expectIDSet                      // filter: row count and order-free id hash
	expectOrdered                    // top-k over a certain column: ids in order
	expectCount                      // floored stream: row count
	expectTopMass                    // top-k by probability: see checkTopMass
	expectBand                       // join: must ⊆ answer ⊆ may
	expectMean                       // aggregate: mean printed in the message
)

// expect is the oracle's answer for one statement.
type expect struct {
	kind  expectKind
	n     int     // expectAffected, expectIDSet, expectCount
	hash  uint64  // expectIDSet
	first int64   // expectIDSet: the first expected id (the row a point query names)
	ids   []int64 // expectOrdered
	mean  float64 // expectMean

	// expectTopMass: every returned id must exist in massOf, masses must be
	// non-increasing within eps, and none may lie below kth - eps.
	k      int
	kth    float64
	massOf func(rid int64) (float64, bool)

	// expectBand
	must map[int64]bool
	may  map[int64]bool
}

// stmt is one statement of a frozen list with its class and expected answer.
type stmt struct {
	class int
	sql   string
	exp   expect
	// dmlRows is how many rows the statement writes (counted in rows_per_s).
	dmlRows int
	// insertBytes is len(sql) for INSERTs (the "user bytes" of the storage ratio).
	insertBytes int
	// unitBegin/unitEnd bracket a multi-statement unit (BEGIN ... COMMIT)
	// whose whole duration is the class's latency.
	unitBegin, unitEnd bool
}

// mix folds one id into an order-free set hash (splitmix64 finaliser, summed).
func mix(id int64) uint64 {
	z := uint64(id) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func idSetExpect(ids []int64) expect {
	e := expect{kind: expectIDSet, n: len(ids)}
	if len(ids) > 0 {
		e.first = ids[0]
	}
	for _, id := range ids {
		e.hash += mix(id)
	}
	return e
}

// --- statement generators over a static readings-shaped table -----------------

// table is the oracle's view of one loaded table whose rows are sorted by a
// contiguous rid.
type table struct {
	name    string
	rows    []row
	byID    map[int64]*row
	byScore []int32 // row positions by score descending, ties in table order
}

func newTable(name string, rows []row) *table {
	t := &table{name: name, rows: rows, byID: make(map[int64]*row, len(rows))}
	for i := range rows {
		t.byID[rows[i].rid] = &rows[i]
	}
	return t
}

// withScoreOrder prepares topkScore; plans call it once, before any client
// goroutine shares the table.
func (t *table) withScoreOrder() *table {
	t.byScore = make([]int32, len(t.rows))
	for i := range t.byScore {
		t.byScore[i] = int32(i)
	}
	sort.SliceStable(t.byScore, func(i, j int) bool {
		return t.rows[t.byScore[i]].score > t.rows[t.byScore[j]].score
	})
	return t
}

func (t *table) pick(rng *rand.Rand) *row { return &t.rows[rng.Intn(len(t.rows))] }

// point: rid = k via the btree.
func (t *table) point(rng *rand.Rand, class int) *stmt {
	r := t.pick(rng)
	return &stmt{class: class,
		sql: fmt.Sprintf("SELECT rid, sensor, value, score FROM %s WHERE rid = %d", t.name, r.rid),
		exp: idSetExpect([]int64{r.rid})}
}

// rangeSmall: 50 consecutive rids via the btree.
func (t *table) rangeSmall(rng *rand.Rand, class int) *stmt {
	span := 50
	if span > len(t.rows) {
		span = len(t.rows)
	}
	i := rng.Intn(len(t.rows) - span + 1)
	ids := make([]int64, span)
	for k := range ids {
		ids[k] = t.rows[i+k].rid
	}
	return &stmt{class: class,
		sql: fmt.Sprintf("SELECT rid, value FROM %s WHERE rid >= %d AND rid < %d", t.name, ids[0], ids[span-1]+1),
		exp: idSetExpect(ids)}
}

// probRange: PROB(col IN [lo, lo+w]) >= p. It re-draws until no row's mass
// lies within eps of p, so the expected id set is exact.
func (t *table) probRange(rng *rand.Rand, class int, col string, w, p float64) *stmt {
	for {
		lo := bound(25 + 45*rng.Float64())
		hi := bound(lo + w)
		ids, ok := t.massFilter(col, lo, hi, p)
		if !ok {
			continue
		}
		return &stmt{class: class,
			sql: fmt.Sprintf("SELECT rid FROM %s WHERE PROB(%s IN [%s, %s]) >= %s", t.name, col, f5(lo), f5(hi), f4(p)),
			exp: idSetExpect(ids)}
	}
}

func (r *row) col(name string) pdf {
	if name == "value" {
		return r.value
	}
	return r.temp
}

// farOutside reports that a symmetric unimodal pdf is centred clearly outside
// [lo, hi]; its mass inside is then below one half by far more than eps, so
// a threshold of one half or more rejects it without evaluating the mass.
func (d pdf) farOutside(lo, hi float64) bool {
	if d.kind != kindGauss && d.kind != kindUnif {
		return false
	}
	c := d.center()
	return c < lo-1e-3 || c > hi+1e-3
}

// massFilter returns the rids whose mass of col inside [lo, hi] is >= p
// (p >= 0.5), and false when some row sits within eps of the threshold.
func (t *table) massFilter(col string, lo, hi, p float64) ([]int64, bool) {
	var ids []int64
	for i := range t.rows {
		d := t.rows[i].col(col)
		if d.farOutside(lo, hi) {
			continue
		}
		m := d.massIn(lo, hi)
		if math.Abs(m-p) < eps {
			return nil, false
		}
		if m >= p {
			ids = append(ids, t.rows[i].rid)
		}
	}
	return ids, true
}

// topkScore: ORDER BY score DESC LIMIT k under a score cut; ties keep table
// order (the engine's sort is stable), which the oracle reproduces exactly
// because scores are exact decimals.
func (t *table) topkScore(rng *rand.Rand, class, k int) *stmt {
	cut := bound(200 + 800*rng.Float64())
	first := sort.Search(len(t.byScore), func(i int) bool { return t.rows[t.byScore[i]].score < cut })
	var ids []int64
	for i := first; i < len(t.byScore) && len(ids) < k; i++ {
		ids = append(ids, t.rows[t.byScore[i]].rid)
	}
	return &stmt{class: class,
		sql: fmt.Sprintf("SELECT rid, score FROM %s WHERE score < %s ORDER BY score DESC LIMIT %d", t.name, f5(cut), k),
		exp: expect{kind: expectOrdered, ids: ids}}
}

// floorStream: value < c floors every pdf and ships the survivors. A Gaussian
// always keeps positive mass below c (c stays within 20 sigma of every mean),
// so the survivors are all Gaussians plus the Uniform and Discrete rows that
// reach below c.
func (t *table) floorStream(rng *rand.Rand, class int) *stmt {
	c := bound(40 + 20*rng.Float64())
	n := 0
	for i := range t.rows {
		if t.rows[i].value.cdf(c) > 0 {
			n++
		}
	}
	return &stmt{class: class,
		sql: fmt.Sprintf("SELECT rid, value FROM %s WHERE value < %s", t.name, f5(c)),
		exp: expect{kind: expectCount, n: n}}
}

// topkProb: the most probable tuples below c — floor temp, rank by the mass
// left. Masses near 1 tie, so the check is by mass, not by position.
func (t *table) topkProb(rng *rand.Rand, class, k int) *stmt {
	c := bound(35 + 30*rng.Float64())
	// Rows wholly below c have mass exactly 1; k of them settle the k-th
	// largest mass without evaluating a single Gaussian.
	full := 0
	for i := range t.rows {
		if d := t.rows[i].temp; d.kind != kindGauss && d.cdf(c) == 1 {
			full++
		}
	}
	e := expect{kind: expectTopMass, k: k, kth: 1}
	if full < k {
		ms := make([]float64, 0, len(t.rows))
		for i := range t.rows {
			if m := t.rows[i].temp.cdf(c); m > 0 {
				ms = append(ms, m)
			}
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(ms)))
		if len(ms) < k {
			e.k = len(ms)
		}
		e.kth = 0
		if e.k > 0 {
			e.kth = ms[e.k-1]
		}
	}
	e.massOf = func(rid int64) (float64, bool) {
		r, ok := t.byID[rid]
		if !ok {
			return 0, false
		}
		return r.temp.cdf(c), true
	}
	return &stmt{class: class,
		sql: fmt.Sprintf("SELECT rid FROM %s WHERE temp < %s ORDER BY PROB(temp) DESC LIMIT %d", t.name, f5(c), k),
		exp: e}
}

// aggSum: SUM(temp) under a score cut; the oracle knows the mean of the sum.
// A tuple exists with the product of the masses of all its pdfs, so a partial
// value pdf scales the tuple's contribution to an aggregate over temp.
func (t *table) aggSum(rng *rand.Rand, class int) *stmt {
	cut := bound(50 + 150*rng.Float64())
	var mean float64
	for i := range t.rows {
		if r := &t.rows[i]; r.score < cut {
			mean += r.temp.mean() * r.value.mass()
		}
	}
	return &stmt{class: class,
		sql: fmt.Sprintf("SELECT SUM(temp) FROM %s WHERE score < %s", t.name, f5(cut)),
		exp: expect{kind: expectMean, mean: mean}}
}

// aggCount: COUNT(*) over a probabilistic range filter; the count's mean is
// the summed existence probability of the rows that pass.
func (t *table) aggCount(rng *rand.Rand, class int) *stmt {
	for {
		lo := bound(25 + 40*rng.Float64())
		hi := bound(lo + 12)
		var mean float64
		ok := true
		for i := range t.rows {
			if t.rows[i].temp.farOutside(lo, hi) {
				continue
			}
			m := t.rows[i].temp.massIn(lo, hi)
			if math.Abs(m-0.6) < eps {
				ok = false
				break
			}
			if m >= 0.6 {
				mean += t.rows[i].temp.mass() * t.rows[i].value.mass()
			}
		}
		if !ok {
			continue
		}
		return &stmt{class: class,
			sql: fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE PROB(temp IN [%s, %s]) >= 0.6", t.name, f5(lo), f5(hi)),
			exp: expect{kind: expectMean, mean: mean}}
	}
}

// join: readings ⋈ sensors on sensor = sid with the uncertain residual
// value < drift and a score cut. The engine evaluates the residual on a
// collapsed grid, so a pair whose Pr(value < drift) is astronomically small
// may or may not survive: pairs the oracle can prove likely (>= 1e-6) must
// appear, every answer must pass the certain predicates, nothing else may.
func (t *table) join(rng *rand.Rand, class int, sensors []sensor) *stmt {
	cut := bound(10 + 15*rng.Float64())
	e := expect{kind: expectBand, must: map[int64]bool{}, may: map[int64]bool{}}
	for i := range t.rows {
		r := &t.rows[i]
		if r.score >= cut {
			continue
		}
		e.may[r.rid] = true
		if ltLowerBound(r.value, sensors[r.sensor].drift) >= 1e-6 {
			e.must[r.rid] = true
		}
	}
	return &stmt{class: class,
		sql: fmt.Sprintf("SELECT r.rid, s.sid FROM %s AS r, sensors AS s WHERE r.sensor = s.sid AND r.value < s.drift AND r.score < %s",
			t.name, f5(cut)),
		exp: e}
}

// scanAll: every row, merged across shards on the cluster.
func (t *table) scanAll(class int) *stmt {
	ids := make([]int64, len(t.rows))
	for i := range t.rows {
		ids[i] = t.rows[i].rid
	}
	return &stmt{class: class, sql: "SELECT rid, value FROM " + t.name, exp: idSetExpect(ids)}
}

// insertStmt renders an INSERT of rows as one statement of the given class.
func insertStmt(class int, tbl string, rows []row) *stmt {
	sql := insertSQL(tbl, rows)
	return &stmt{class: class, sql: sql, exp: expect{kind: expectAffected, n: len(rows)},
		dmlRows: len(rows), insertBytes: len(sql)}
}

func plainStmt(class int, sql string) *stmt { return &stmt{class: class, sql: sql} }
