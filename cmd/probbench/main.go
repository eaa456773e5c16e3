// Command probbench regenerates the paper's evaluation (§IV): one
// experiment per figure, plus the ablation studies of DESIGN.md. Output is
// the textual table behind each plot; -json additionally writes every
// executed experiment's rows as a machine-readable document.
//
// Usage:
//
//	probbench [-exp fig4|fig5|fig6|ablations|all] [-full] [-seed N] [-json out.json]
//
// -full runs Fig. 5 at the paper's 0.5M-3M tuple scale (gigabytes of page
// files and several minutes); the default sweep is scaled down by 10x while
// preserving the size ratios.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"probdb/internal/bench"
)

// jsonDoc is the machine-readable output of one probbench invocation: the
// environment the numbers were measured in, then one entry per executed
// experiment holding the same rows the textual tables render.
type jsonDoc struct {
	Generated   string         `json:"generated"`
	GoVersion   string         `json:"go_version"`
	NumCPU      int            `json:"num_cpu"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	Seed        int64          `json:"seed,omitempty"`
	Experiments map[string]any `json:"experiments"`
}

func main() {
	exp := flag.String("exp", "all", "experiment to run: fig4, fig5, fig6, ablations, all")
	full := flag.Bool("full", false, "run Fig. 5 at the paper's 0.5M-3M tuple scale")
	seed := flag.Int64("seed", 0, "override workload seed (0 = per-experiment defaults)")
	fig6hist := flag.Bool("fig6-hist", false, "run Fig. 6 over histogram pdfs instead of discrete ones")
	jsonOut := flag.String("json", "", "also write the executed experiments' rows as JSON to this file")
	flag.Parse()

	doc := &jsonDoc{
		Generated:   time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Seed:        *seed,
		Experiments: map[string]any{},
	}

	run := func(name string) bool { return *exp == "all" || *exp == name }
	ok := false

	if run("fig4") {
		ok = true
		cfg := bench.DefaultFig4
		if *seed != 0 {
			cfg.Seed = *seed
		}
		rows := bench.Fig4(cfg)
		doc.Experiments["fig4"] = rows
		fmt.Print(bench.FormatFig4(rows))
		fmt.Println()
	}
	if run("fig5") {
		ok = true
		cfg := bench.DefaultFig5
		if *full {
			cfg.Sizes = []int{500_000, 1_000_000, 1_500_000, 2_000_000, 2_500_000, 3_000_000}
		}
		if *seed != 0 {
			cfg.Seed = *seed
		}
		rows, err := bench.Fig5(cfg)
		if err != nil {
			fatal(err)
		}
		doc.Experiments["fig5"] = rows
		fmt.Print(bench.FormatFig5(rows))
		fmt.Println()
	}
	if run("fig6") {
		ok = true
		cfg := bench.DefaultFig6
		if *fig6hist {
			cfg.Discrete = false
		}
		if *seed != 0 {
			cfg.Seed = *seed
		}
		rows, err := bench.Fig6(cfg)
		if err != nil {
			fatal(err)
		}
		doc.Experiments["fig6"] = rows
		fmt.Print(bench.FormatFig6(rows))
		fmt.Println()
	}
	if run("ablations") {
		ok = true
		fl := bench.AblationSymbolicFloors(5000, 20080404)
		mg, err := bench.AblationLazyEagerMerge(5000, 20080405)
		if err != nil {
			fatal(err)
		}
		rp := bench.AblationHistoryReplay(500, []int{1, 2, 4, 8, 16}, 20080406)
		bp, err := bench.AblationBufferPool(100_000, []int{64, 256, 1024, 4096, 1 << 20}, 20080407)
		if err != nil {
			fatal(err)
		}
		depth := bench.AblationEquiDepth(300, 300, []int{5, 10, 15, 20, 25}, 20080409)
		doc.Experiments["ablations"] = map[string]any{
			"symbolic_floors": fl,
			"lazy_eager":      mg,
			"history_replay":  rp,
			"buffer_pool":     bp,
			"equi_depth":      depth,
		}
		fmt.Print(bench.FormatAblations(fl, mg, rp, bp))
		fmt.Print(bench.FormatAblationDepth(depth))
	}
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}

	if *jsonOut != "" {
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fatal(err)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*jsonOut, buf, 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "probbench: wrote %s\n", *jsonOut)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "probbench:", err)
	os.Exit(1)
}
