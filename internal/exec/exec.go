// Package exec is the shared parallel-execution layer of the engine: a
// morsel-style parallel loop used by the relational operators and the
// Monte-Carlo sampler.
//
// The design goal is determinism: parallel execution must be byte-identical
// to sequential execution. For makes that easy to guarantee — callers give
// every item an index, workers fill per-index result slots, and the caller
// assembles the output by scanning slots in index order. Since per-item
// work never depends on other items, the floats computed at parallelism N
// are exactly the floats computed at parallelism 1.
package exec

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Resolve normalizes a degree-of-parallelism knob: values <= 0 mean "one
// worker per logical CPU" (runtime.GOMAXPROCS), anything else is taken
// as-is.
func Resolve(par int) int {
	if par <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return par
}

// morselsPerWorker controls chunking granularity: each worker's share of
// the range is split into this many morsels so that uneven per-item costs
// (a heavy dependency-set merge next to a cheap certain-predicate filter)
// still balance across workers.
const morselsPerWorker = 8

// seqThreshold is the range length below which For always runs inline:
// spawning workers for a handful of items costs more than it saves.
const seqThreshold = 32

// For splits [0, n) into morsels and runs fn(lo, hi) over them on up to
// par workers (par as interpreted by Resolve). It returns the error of the
// lowest-indexed failing morsel — deterministic no matter how the workers
// interleave — and cancels outstanding morsels once any morsel fails.
// fn must be safe to call concurrently on disjoint ranges.
func For(par, n int, fn func(lo, hi int) error) error {
	return ForCtx(context.Background(), par, n, fn)
}

// ForCtx is For with an external cancellation context: morsels stop being
// claimed once ctx is done, and ctx.Err() is returned if no morsel failed
// first.
func ForCtx(ctx context.Context, par, n int, fn func(lo, hi int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	par = Resolve(par)
	if par <= 1 || n < seqThreshold {
		if err := ctx.Err(); err != nil {
			return err
		}
		return fn(0, n)
	}

	chunk := n / (par * morselsPerWorker)
	if chunk < 1 {
		chunk = 1
	}
	morsels := (n + chunk - 1) / chunk
	if par > morsels {
		par = morsels
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	errs := make([]error, morsels) // per-morsel outcome, indexed for determinism
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(par)
	for w := 0; w < par; w++ {
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				m := int(next.Add(1)) - 1
				if m >= morsels {
					return
				}
				lo := m * chunk
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				if err := fn(lo, hi); err != nil {
					errs[m] = err
					cancel() // first failure stops the claiming of new morsels
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}
