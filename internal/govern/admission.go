package govern

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Class partitions admitted work so one statement kind cannot starve the
// others: a flood of analytics SELECTs leaves write and transaction slots
// free, and vice versa.
type Class int

const (
	ClassRead  Class = iota // SELECT, EXPLAIN
	ClassWrite              // INSERT/UPDATE/DELETE/DDL, autocommit
	ClassTxn                // statements inside BEGIN..COMMIT, and the markers
	numClasses
)

func (c Class) String() string {
	switch c {
	case ClassRead:
		return "read"
	case ClassWrite:
		return "write"
	case ClassTxn:
		return "txn"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// ClassifySQL buckets a statement by its first keyword. inTxn wins: every
// statement of an open transaction (including COMMIT/ROLLBACK) uses the
// txn class so a read flood can't wedge half-finished transactions.
func ClassifySQL(sql string, inTxn bool) Class {
	if inTxn {
		return ClassTxn
	}
	s := strings.TrimSpace(sql)
	if i := strings.IndexAny(s, " \t\r\n;("); i > 0 {
		s = s[:i]
	}
	switch strings.ToUpper(s) {
	case "SELECT", "EXPLAIN":
		return ClassRead
	case "BEGIN", "START", "COMMIT", "ROLLBACK":
		return ClassTxn
	default:
		return ClassWrite
	}
}

// QueueFullError is the typed rejection for a class whose admission slots
// (running + queued) are exhausted. RetryAfter is the server's backoff
// hint; it travels to the client in the wire error frame.
type QueueFullError struct {
	Class      Class
	Limit      int
	RetryAfter time.Duration
}

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("govern: %s admission queue full (limit %d), retry after %v",
		e.Class, e.Limit, e.RetryAfter)
}

// Retryable reports true: the statement was never executed, so any
// statement kind — including non-idempotent writes — is safe to resubmit.
func (e *QueueFullError) Retryable() bool { return true }

// Admission bounds the number of statements per class that may be either
// queued or running. Acquire is non-blocking — overload answers
// immediately with a typed rejection instead of stacking goroutines.
type Admission struct {
	mu       sync.Mutex
	limit    [numClasses]int
	inflight [numClasses]int
	rejected [numClasses]uint64
	hint     time.Duration
}

// NewAdmission builds an admission controller with per-class slot limits
// (each must be >= 1) and the RetryAfter hint handed to rejected clients.
func NewAdmission(read, write, txn int, hint time.Duration) *Admission {
	a := &Admission{hint: hint}
	a.limit[ClassRead] = max(1, read)
	a.limit[ClassWrite] = max(1, write)
	a.limit[ClassTxn] = max(1, txn)
	if a.hint <= 0 {
		a.hint = 100 * time.Millisecond
	}
	return a
}

// Acquire claims a slot for class c, or fails fast with *QueueFullError.
// Every Acquire that returns nil must be paired with exactly one Release.
func (a *Admission) Acquire(c Class) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.inflight[c] >= a.limit[c] {
		a.rejected[c]++
		return &QueueFullError{Class: c, Limit: a.limit[c], RetryAfter: a.hint}
	}
	a.inflight[c]++
	return nil
}

// Release returns a slot for class c.
func (a *Admission) Release(c Class) {
	a.mu.Lock()
	if a.inflight[c] > 0 {
		a.inflight[c]--
	}
	a.mu.Unlock()
}

// Depths returns the in-flight count per class, indexed by Class.
func (a *Admission) Depths() [3]int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return [3]int{a.inflight[ClassRead], a.inflight[ClassWrite], a.inflight[ClassTxn]}
}

// Limits returns the per-class slot limits, indexed by Class.
func (a *Admission) Limits() [3]int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return [3]int{a.limit[ClassRead], a.limit[ClassWrite], a.limit[ClassTxn]}
}

// Rejections returns the cumulative rejection count across all classes.
func (a *Admission) Rejections() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.rejected[ClassRead] + a.rejected[ClassWrite] + a.rejected[ClassTxn]
}
