// Package govern is the resource-governance layer: hierarchical memory
// budgets charged by the allocating operators, bounded per-class admission
// queues, and the jittered-backoff arithmetic retrying clients share. It is
// deliberately free of engine dependencies (standard library only) so every
// layer — core, exec, pipe, wire, server — can import it without cycles.
//
// The model is a tree of Budgets: one server root, one child per session,
// one grandchild per query. Reserve charges a byte count against every
// level on the path to the root and fails with a typed *BudgetError at the
// first level whose limit would be exceeded — so a greedy query dies alone
// when it busts its own budget, and only busts the server budget after the
// root's shed hook has had one chance to free memory (the server's cancels
// the largest running query).
package govern

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// BudgetError is the typed refusal Reserve returns when a budget (or one of
// its ancestors) would exceed its limit even after shedding. It is
// retryable: the pressure that caused it is transient by construction.
type BudgetError struct {
	Budget    string // name of the level that refused
	Requested int64
	Used      int64
	Limit     int64
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("govern: %s memory budget exceeded (requested %d, used %d of %d)",
		e.Budget, e.Requested, e.Used, e.Limit)
}

// Retryable reports that backing off and retrying is sensible: budget
// pressure passes when other queries finish.
func (e *BudgetError) Retryable() bool { return true }

// Reclaimer frees memory under pressure: asked for want bytes, it returns
// an estimate of the bytes it freed (possibly asynchronously, e.g. by
// cancelling a query whose operators release on close).
type Reclaimer func(want int64) (freed int64)

// Budget is one node of the accounting tree. The zero value is unusable;
// construct roots with NewBudget and descendants with Child. A nil *Budget
// is a valid "unlimited, untracked" budget: every method no-ops.
type Budget struct {
	name   string
	parent *Budget
	limit  int64 // <= 0 means unlimited (still tracked)
	used   atomic.Int64
	high   atomic.Int64 // high-water mark of used

	mu        sync.Mutex
	reclaimer Reclaimer    // this level's shed hook, or nil
	shed      atomic.Int64 // cumulative bytes the hook reported freed
}

// NewBudget returns a root budget. limit <= 0 means unlimited (the budget
// still tracks usage, so children and high-water accounting work).
func NewBudget(name string, limit int64) *Budget {
	return &Budget{name: name, limit: limit}
}

// Child creates a sub-budget: reservations against the child charge every
// ancestor too.
func (b *Budget) Child(name string, limit int64) *Budget {
	if b == nil {
		return NewBudget(name, limit)
	}
	return &Budget{name: name, parent: b, limit: limit}
}

// Name returns the budget's name.
func (b *Budget) Name() string {
	if b == nil {
		return ""
	}
	return b.name
}

// Used returns the bytes currently reserved at this level.
func (b *Budget) Used() int64 {
	if b == nil {
		return 0
	}
	return b.used.Load()
}

// Limit returns the configured limit (<= 0: unlimited).
func (b *Budget) Limit() int64 {
	if b == nil {
		return 0
	}
	return b.limit
}

// HighWater returns the maximum Used ever observed — the overload suites
// assert it never exceeded the limit.
func (b *Budget) HighWater() int64 {
	if b == nil {
		return 0
	}
	return b.high.Load()
}

// ShedBytes returns the cumulative bytes this level's shed hook reported
// freeing under pressure.
func (b *Budget) ShedBytes() int64 {
	if b == nil {
		return 0
	}
	return b.shed.Load()
}

// OnPressure makes f this level's shed hook, replacing any earlier one:
// Reserve calls it once when this level refuses a charge.
func (b *Budget) OnPressure(f Reclaimer) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.reclaimer = f
	b.mu.Unlock()
}

// tryAdd charges n at this level alone, rolling back on limit excess.
func (b *Budget) tryAdd(n int64) bool {
	nv := b.used.Add(n)
	if b.limit > 0 && nv > b.limit {
		b.used.Add(-n)
		return false
	}
	for {
		h := b.high.Load()
		if nv <= h || b.high.CompareAndSwap(h, nv) {
			return true
		}
	}
}

// reclaim asks this level's shed hook for want bytes. It returns true if
// the hook freed anything (worth one retry).
func (b *Budget) reclaim(want int64) bool {
	b.mu.Lock()
	f := b.reclaimer
	b.mu.Unlock()
	if f == nil {
		return false
	}
	got := f(want)
	if got <= 0 {
		return false
	}
	b.shed.Add(got)
	return true
}

// Reserve charges n bytes against this budget and every ancestor. On the
// first level whose limit would be exceeded the partial charges roll back;
// if that level has a shed hook it sheds and the walk retries once. The
// final refusal is a typed *BudgetError naming the refusing level.
func (b *Budget) Reserve(n int64) error {
	if b == nil || n <= 0 {
		return nil
	}
	for attempt := 0; ; attempt++ {
		var fail *Budget
		for cur := b; cur != nil; cur = cur.parent {
			if !cur.tryAdd(n) {
				fail = cur
				break
			}
		}
		if fail == nil {
			return nil
		}
		for cur := b; cur != fail; cur = cur.parent {
			cur.used.Add(-n)
		}
		if attempt == 0 && fail.reclaim(n) {
			continue // a victim was shed: one retry
		}
		return &BudgetError{Budget: fail.name, Requested: n, Used: fail.used.Load(), Limit: fail.limit}
	}
}

// Release returns n bytes to this budget and every ancestor. Releasing
// more than was reserved clamps at zero per level (a paired Reserve never
// triggers this; the clamp is a backstop against double-release bugs).
func (b *Budget) Release(n int64) {
	if b == nil || n <= 0 {
		return
	}
	for cur := b; cur != nil; cur = cur.parent {
		if nv := cur.used.Add(-n); nv < 0 {
			cur.used.Add(-nv) // clamp to zero
		}
	}
}

// Drain releases everything still reserved at this level (and the same
// amount from every ancestor), returning the leaked byte count. It is the
// end-of-query backstop: with correctly paired operators it returns zero.
func (b *Budget) Drain() int64 {
	if b == nil {
		return 0
	}
	n := b.used.Swap(0)
	if n <= 0 {
		return 0
	}
	for cur := b.parent; cur != nil; cur = cur.parent {
		if nv := cur.used.Add(-n); nv < 0 {
			cur.used.Add(-nv)
		}
	}
	return n
}
