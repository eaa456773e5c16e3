// Package mc is the Monte-Carlo reference engine: it samples concrete
// worlds from a probabilistic table and evaluates queries on them, serving
// as the testing oracle for *continuous* distributions — the half of the
// model the possible-worlds enumerator (internal/pws) cannot reach. Where
// pws is exact and exponential, mc is approximate with CLT error bars and
// handles any pdf the dist layer can sample.
package mc

import (
	"math"
	"math/rand"

	"probdb/internal/core"
	"probdb/internal/exec"
	"probdb/internal/pws"
)

// SampleWorlds draws n independent concrete worlds from the base table,
// each with probability weight 1/n: per tuple and dependency set, the set's
// pdf either yields a concrete value vector (with probability equal to its
// mass) or marks the tuple absent. The result plugs into the pws package's
// Filter/JoinWorlds/Collapse machinery.
//
// Every world has its own RNG stream derived deterministically from (seed,
// world index), so the worlds, drawn in morsels, are identical on any
// number of processors.
//
// Base tuples must be independent (Definition 2); do not sample derived
// tables whose tuples share history.
func SampleWorlds(t *core.Table, n int, seed int64, keyCols ...string) []pws.World {
	deps := t.DepSets()
	tuples := t.Tuples()
	nattrs := 0
	for _, set := range deps {
		nattrs += len(set)
	}
	// Tuple identities (key string + certain-column map) are the same in
	// every world; compute them once and share across worlds — rows are
	// read-only downstream, and this was the dominant allocation churn.
	keys := make([]string, len(tuples))
	certains := make([]map[string]core.Value, len(tuples))
	for ti, tup := range tuples {
		keys[ti], certains[ti] = identity(t, tup, keyCols)
	}
	worlds := make([]pws.World, n)
	w := 1 / float64(n)
	err := exec.For(n, func(lo, hi int) error {
		for wi := lo; wi < hi; wi++ {
			r := rand.New(rand.NewSource(worldSeed(seed, wi)))
			rows := make([]pws.Row, 0, len(tuples))
			for ti, tup := range tuples {
				vals, exists := sampleTuple(t, tup, deps, nattrs, r)
				if !exists {
					continue
				}
				rows = append(rows, pws.Row{Key: keys[ti], Vals: vals, Certain: certains[ti]})
			}
			worlds[wi] = pws.World{Prob: w, Rows: rows}
		}
		return nil
	})
	if err != nil {
		panic(err) // a worker's *exec.PanicError, raised again where the caller can recover it
	}
	return worlds
}

// worldSeed derives the RNG seed of world i from the caller's seed via a
// splitmix64 finalizer: statistically independent streams per world, and a
// world's stream depends only on (seed, i) — never on which worker drew it
// or how many worlds preceded it.
func worldSeed(seed int64, i int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

func sampleTuple(t *core.Table, tup *core.Tuple, deps [][]string, nattrs int, r *rand.Rand) (map[string]float64, bool) {
	vals := make(map[string]float64, nattrs)
	for i, set := range deps {
		d := t.DepDist(tup, i)
		mass := d.Mass()
		if mass < 1 && r.Float64() >= mass {
			return nil, false // this dependency set "did not happen"
		}
		x := d.Sample(r)
		for j, name := range set {
			vals[name] = x[j]
		}
	}
	return vals, true
}

func identity(t *core.Table, tup *core.Tuple, keyCols []string) (string, map[string]core.Value) {
	certain := map[string]core.Value{}
	for _, c := range t.Schema().Columns() {
		if !c.Uncertain {
			v, _ := t.Value(tup, c.Name)
			certain[c.Name] = v
		}
	}
	key := ""
	for i, k := range keyCols {
		if i > 0 {
			key += "|"
		}
		key += certain[k].Render()
	}
	return key, certain
}

// Existence estimates, for every key, the probability that the source tuple
// contributes a row satisfying pred — the Monte-Carlo counterpart of a
// selection's per-tuple existence probability.
func Existence(worlds []pws.World, pred func(pws.Row) bool) map[string]float64 {
	out := map[string]float64{}
	for _, w := range worlds {
		for _, row := range w.Rows {
			if pred(row) {
				out[row.Key] += w.Prob
			}
		}
	}
	return out
}

// JoinExistence estimates per key-pair existence probabilities of a join
// between two independently sampled world sequences. Worlds are paired by
// index (both sequences must have equal length), which preserves the
// independence of the two tables while reusing each sample.
func JoinExistence(a, b []pws.World, pred func(ra, rb pws.Row) bool) map[string]float64 {
	if len(a) != len(b) {
		panic("mc: JoinExistence requires equally sized world samples")
	}
	out := map[string]float64{}
	for i := range a {
		for _, ra := range a[i].Rows {
			for _, rb := range b[i].Rows {
				if pred(ra, rb) {
					out[ra.Key+"|"+rb.Key] += a[i].Prob
				}
			}
		}
	}
	return out
}

// Tolerance returns a 4-sigma binomial confidence radius for an estimated
// probability from n samples — the comparison band for oracle checks.
func Tolerance(p float64, n int) float64 {
	v := p * (1 - p)
	if v < 0.25/float64(n) {
		v = 0.25 / float64(n) // floor: at least the worst-case granularity
	}
	return 4 * math.Sqrt(v/float64(n))
}
