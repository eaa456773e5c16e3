package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// spec mirrors BENCHMARK.json as far as the A/A mode and the tests read it.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// quartiles are Python's statistics.quantiles(v, n=4), the default
// "exclusive" method, which is what the driver computes spreads with.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// maxBound is the largest bound the driver's contract accepts.
const maxBound = 0.25

// specPath is the benchmark's description, relative to the root of the
// checkout, where run.sh starts the program.
const specPath = "BENCHMARK.json"

// runAA runs cfg.aa full sets — every workload, tracing off, one process per
// run as the driver does, a new seed per set — and reports for every metric
// and workload the median, the quartiles and the spread (q3-q1)/median. It
// derives each metric's bound by the rule max(3 x widest spread, 3 %) capped
// at maxBound, and fails when a gated metric's spread exceeds the bound
// BENCHMARK.json fixes — the driver's own acceptance test — or when that
// bound is tighter than the rule allows on these runs.
func runAA(cfg config) error {
	if cfg.aa < 2 {
		return fmt.Errorf("-aa needs at least 2 sets")
	}
	sp, err := readSpec(specPath)
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string]map[string][]float64{} // metric → workload → one value per set
	for set := 0; set < cfg.aa; set++ {
		for _, w := range workloads {
			seed := cfg.seed + int64(set)
			args := []string{"--workload", w.name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(cfg.seconds),
				"--trace", "0", "--scratch", cfg.scratch}
			if cfg.smoke {
				args = append(args, "--smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("set %d %s: %w", set, w.name, err)
			}
			var last string
			sc := bufio.NewScanner(strings.NewReader(string(out)))
			sc.Buffer(nil, 1<<20)
			for sc.Scan() {
				last = sc.Text()
			}
			var res result
			if err := json.Unmarshal([]byte(last), &res); err != nil {
				return fmt.Errorf("set %d %s: result line: %w", set, w.name, err)
			}
			if !res.Correct || res.Failed != 0 {
				return fmt.Errorf("set %d %s (seed %d): %d of %d operations failed", set, w.name, seed, res.Failed, res.Attempted)
			}
			for name, m := range res.Metrics {
				if values[name] == nil {
					values[name] = map[string][]float64{}
				}
				values[name][w.name] = append(values[name][w.name], m.Value)
			}
			fmt.Fprintf(os.Stderr, "aa: set %d/%d %s done\n", set+1, cfg.aa, w.name)
		}
	}

	fmt.Printf("# A/A report: %d sets, seeds %d..%d, %g s windows, one process per run\n\n",
		cfg.aa, cfg.seed, cfg.seed+int64(cfg.aa)-1, cfg.seconds)
	fmt.Println("| metric | workload | median | q1 | q3 | spread |")
	fmt.Println("|---|---|---|---|---|---|")
	var over []string
	widest := map[string]float64{}
	for _, e := range sp.EndToEnd {
		for _, w := range workloads {
			v := values[e.Name][w.name]
			if len(v) == 0 {
				return fmt.Errorf("no values of %s on %s", e.Name, w.name)
			}
			q1, q2, q3 := quartiles(v)
			spread := (q3 - q1) / q2
			fmt.Printf("| %s | %s | %.6g | %.6g | %.6g | %.2f %% |\n", e.Name, w.name, q2, q1, q3, 100*spread)
			if spread > widest[e.Name] {
				widest[e.Name] = spread
			}
			// setup_s is compared between medians only, so its spread is
			// reported but not held to the bound.
			if spread > e.Bound && e.Name != "setup_s" {
				over = append(over, fmt.Sprintf("%s on %s: spread %.2f %% over bound %.0f %%", e.Name, w.name, 100*spread, 100*e.Bound))
			}
		}
	}
	fmt.Println("\n| metric | widest spread | bound by the rule | bound in BENCHMARK.json |")
	fmt.Println("|---|---|---|---|")
	for _, e := range sp.EndToEnd {
		need := math.Max(math.Ceil(300*widest[e.Name])/100, 0.03)
		note := ""
		if need > maxBound {
			need, note = maxBound, " (the cap: the widest spread is above a third of it)"
		}
		fmt.Printf("| %s | %.2f %% | %.0f %%%s | %.0f %% |\n", e.Name, 100*widest[e.Name], 100*need, note, 100*e.Bound)
		if e.Bound < need {
			over = append(over, fmt.Sprintf("%s: bound %.0f %% is tighter than the rule's %.0f %%", e.Name, 100*e.Bound, 100*need))
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("A/A runs do not fit the bounds of %s:\n  %s", specPath, strings.Join(over, "\n  "))
	}
	return nil
}
