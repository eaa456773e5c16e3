package main

import (
	"regexp"
	"sort"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload at 1/20 scale, traced and untraced, and
// holds the emitted names to BENCHMARK.json: exactly its workloads, exactly
// its end_to_end metrics with tracing off, exactly its per_layer metrics
// with tracing on.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots servers; skipped under -short")
	}
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var specWorkloads, ours []string
	for _, w := range sp.Workloads {
		specWorkloads = append(specWorkloads, w.Name)
	}
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !equalSets(specWorkloads, ours) {
		t.Fatalf("workloads: BENCHMARK.json has %v, the program has %v", specWorkloads, ours)
	}
	wantE2E, wantLayer := map[string]string{}, map[string]string{}
	for _, m := range sp.EndToEnd {
		wantE2E[m.Name] = m.Unit
	}
	for _, m := range sp.PerLayer {
		wantLayer[m.Name] = m.Unit
	}
	for _, l := range perLayerNames() {
		if wantLayer[l.name] != l.unit {
			t.Errorf("per_layer %s: BENCHMARK.json unit %q, program unit %q", l.name, wantLayer[l.name], l.unit)
		}
	}
	cfg := config{seed: 42, seconds: 0.4, smoke: true, scratch: t.TempDir()}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg.trace = traced
			res, notes, err := runWorkload(cfg, w)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d %v", w.name, traced, res.Correct, res.Attempted, res.Failed, notes)
			}
			want := wantE2E
			if traced {
				want = wantLayer
			}
			for name, m := range res.Metrics {
				if !nameRE.MatchString(name) {
					t.Errorf("%s: metric name %q is outside the contract's alphabet", w.name, name)
				}
				if unit, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: emits %s, which BENCHMARK.json does not list", w.name, traced, name)
				} else if unit != m.Unit {
					t.Errorf("%s trace=%v: %s has unit %q, BENCHMARK.json says %q", w.name, traced, name, m.Unit, unit)
				}
			}
			for name := range want {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s trace=%v: %s is in BENCHMARK.json but was not emitted", w.name, traced, name)
				}
			}
			if !traced {
				for name, m := range res.Metrics {
					if !(m.Value > 0) {
						t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, name, m.Value)
					}
				}
			}
		}
	}
}

func equalSets(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
