// Package exec is the shared parallel-execution layer of the engine: a
// morsel-style parallel loop for the few kernels where a second core pays —
// the per-row loops that build or floor a pdf, and the one-shot PTI build
// and Monte-Carlo sampler. Every other loop runs inline: sessions already
// run concurrently under the server's worker slots, so a morsel fan-out
// around a light per-row kernel only wakes an idle processor for nothing.
//
// The design goal is determinism: parallel execution must be byte-identical
// to sequential execution. For makes that easy to guarantee — callers give
// every item an index, workers fill per-index result slots, and the caller
// assembles the output by scanning slots in index order. Since per-item
// work never depends on other items, the floats computed on N processors
// are exactly the floats computed on one.
package exec

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// morselsPerWorker controls chunking granularity: each worker's share of
// the range is split into this many morsels so that uneven per-item costs
// (a heavy dependency-set merge next to a cheap certain-predicate filter)
// still balance across workers.
const morselsPerWorker = 8

// seqThreshold is the range length below which For always runs inline:
// spawning workers for a handful of items costs more than it saves.
const seqThreshold = 32

// PanicError is a panic in fn on one of For's workers, recovered there and
// returned as that morsel's error: no goroutine above the worker could
// recover it, so it would end the process.
type PanicError struct {
	Value any    // the value passed to panic
	Stack []byte // the worker's stack where it panicked
}

func (e *PanicError) Error() string { return fmt.Sprintf("exec: morsel panicked: %v", e.Value) }

// For splits [0, n) into morsels and runs fn(lo, hi) over them on up to
// runtime.GOMAXPROCS(0) workers. It returns the error of the lowest-indexed
// failing morsel — deterministic no matter how the workers interleave — and
// stops claiming morsels once any morsel fails; a morsel that panics fails
// with a *PanicError. fn must be safe to call concurrently on disjoint
// ranges. A range small enough to run inline runs on the caller's goroutine,
// where a panic propagates as usual.
func For(n int, fn func(lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	par := runtime.GOMAXPROCS(0)
	if par <= 1 || n < seqThreshold {
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

	errs := make([]error, morsels) // per-morsel outcome, indexed for determinism
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(par)
	for w := 0; w < par; w++ {
		go func() {
			defer wg.Done()
			m := 0
			defer func() {
				if r := recover(); r != nil {
					errs[m] = &PanicError{Value: r, Stack: debug.Stack()}
					failed.Store(true)
				}
			}()
			for !failed.Load() {
				m = int(next.Add(1)) - 1
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
					failed.Store(true) // first failure stops the claiming of new morsels
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
	return nil
}
