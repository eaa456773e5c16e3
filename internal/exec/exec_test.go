package exec

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// withProcs runs the rest of the test at GOMAXPROCS n — For's worker count —
// and restores the previous setting when the test ends.
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 4, 7} {
		withProcs(t, procs)
		for _, n := range []int{0, 1, 31, 32, 33, 1000, 4096} {
			seen := make([]int32, n)
			err := For(n, func(lo, hi int) error {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("n=%d procs=%d: %v", n, procs, err)
			}
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d procs=%d: index %d visited %d times", n, procs, i, c)
				}
			}
		}
	}
}

func TestForDeterministicOutput(t *testing.T) {
	const n = 10_000
	run := func(procs int) []float64 {
		withProcs(t, procs)
		out := make([]float64, n)
		if err := For(n, func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				out[i] = float64(i) * 1.0000001
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	seq := run(1)
	for _, procs := range []int{2, 4, 8} {
		got := run(procs)
		for i := range seq {
			if got[i] != seq[i] {
				t.Fatalf("procs=%d: slot %d differs", procs, i)
			}
		}
	}
}

// TestForFirstErrorWins: the reported error is always the lowest-indexed
// failing morsel's, regardless of scheduling.
func TestForFirstErrorWins(t *testing.T) {
	withProcs(t, 8)
	const n = 4096
	for trial := 0; trial < 20; trial++ {
		err := For(n, func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				if i%97 == 0 { // many failing morsels
					return fmt.Errorf("item %d", lo)
				}
			}
			return nil
		})
		if err == nil || err.Error() != "item 0" {
			t.Fatalf("trial %d: got %v, want item 0", trial, err)
		}
	}
}

func TestForStopsClaimingAfterError(t *testing.T) {
	withProcs(t, 2)
	boom := errors.New("boom")
	var calls atomic.Int64
	err := For(1<<20, func(lo, hi int) error {
		calls.Add(1)
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v", err)
	}
	// With cancellation, far fewer morsels run than exist.
	if c := calls.Load(); c > 64 {
		t.Fatalf("ran %d morsels after first error", c)
	}
}

// TestForWorkerPanicIsMorselError: a panic in fn on a worker goroutine
// fails For with a *PanicError carrying the value and the worker's stack,
// instead of ending the process.
func TestForWorkerPanicIsMorselError(t *testing.T) {
	withProcs(t, 2)
	err := For(64, func(lo, hi int) error {
		if lo <= 40 && 40 < hi {
			panic("boom at 40")
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "boom at 40" || len(pe.Stack) == 0 {
		t.Fatalf("For = %v, want a *PanicError for the morsel holding 40", err)
	}
}
