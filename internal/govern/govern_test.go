package govern

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestBudgetHierarchy(t *testing.T) {
	root := NewBudget("server", 1000)
	ses := root.Child("session", 600)
	q := ses.Child("query", 400)

	if err := q.Reserve(300); err != nil {
		t.Fatalf("reserve 300: %v", err)
	}
	if got := root.Used(); got != 300 {
		t.Fatalf("root used = %d, want 300", got)
	}
	if got := ses.Used(); got != 300 {
		t.Fatalf("session used = %d, want 300", got)
	}

	// Query limit refuses first, and the refusal names the level.
	err := q.Reserve(200)
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("reserve 200: got %v, want *BudgetError", err)
	}
	if be.Budget != "query" {
		t.Fatalf("refusing level = %q, want query", be.Budget)
	}
	if !be.Retryable() {
		t.Fatal("BudgetError must be retryable")
	}
	// A failed reserve must not leave partial charges anywhere.
	if root.Used() != 300 || ses.Used() != 300 || q.Used() != 300 {
		t.Fatalf("partial charge leaked: root=%d ses=%d q=%d", root.Used(), ses.Used(), q.Used())
	}

	q.Release(300)
	if root.Used() != 0 || ses.Used() != 0 || q.Used() != 0 {
		t.Fatalf("release did not propagate: root=%d ses=%d q=%d", root.Used(), ses.Used(), q.Used())
	}
	if hw := root.HighWater(); hw != 300 {
		t.Fatalf("high water = %d, want 300", hw)
	}
}

func TestBudgetMidChainRefusalRollsBack(t *testing.T) {
	root := NewBudget("server", 100)
	ses := root.Child("session", 1000) // child permits more than the parent
	if err := ses.Reserve(150); err == nil {
		t.Fatal("reserve above server limit succeeded")
	}
	if ses.Used() != 0 || root.Used() != 0 {
		t.Fatalf("rollback failed: ses=%d root=%d", ses.Used(), root.Used())
	}
}

func TestBudgetReclaim(t *testing.T) {
	root := NewBudget("server", 100)
	if err := root.Reserve(90); err != nil {
		t.Fatalf("reserve 90: %v", err)
	}
	root.OnPressure(func(want int64) int64 {
		root.Release(50) // a victim gives back memory
		return 50
	})
	if err := root.Reserve(40); err != nil {
		t.Fatalf("reserve after shed: %v", err)
	}
	if root.ShedBytes() != 50 {
		t.Fatalf("shed bytes = %d, want 50", root.ShedBytes())
	}
}

func TestBudgetDrain(t *testing.T) {
	root := NewBudget("server", 0) // unlimited, still tracked
	q := root.Child("query", 0)
	if err := q.Reserve(123); err != nil {
		t.Fatalf("reserve: %v", err)
	}
	if leaked := q.Drain(); leaked != 123 {
		t.Fatalf("drain = %d, want 123", leaked)
	}
	if root.Used() != 0 {
		t.Fatalf("root used after drain = %d", root.Used())
	}
	if q.Drain() != 0 {
		t.Fatal("second drain must be a no-op")
	}
}

func TestBudgetNilSafe(t *testing.T) {
	var b *Budget
	if err := b.Reserve(1 << 40); err != nil {
		t.Fatalf("nil budget must be unlimited: %v", err)
	}
	b.Release(5)
	b.OnPressure(func(int64) int64 { return 0 })
	if b.Drain() != 0 || b.Used() != 0 || b.HighWater() != 0 {
		t.Fatal("nil budget accessors must return zero")
	}
	child := b.Child("q", 10)
	if child == nil || child.Limit() != 10 {
		t.Fatal("nil.Child must return a usable root")
	}
}

func TestBudgetConcurrent(t *testing.T) {
	root := NewBudget("server", 1<<20)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := root.Child("q", 1<<16)
			for j := 0; j < 1000; j++ {
				if err := q.Reserve(64); err == nil {
					q.Release(64)
				}
			}
			if leaked := q.Drain(); leaked != 0 {
				t.Errorf("leaked %d bytes", leaked)
			}
		}()
	}
	wg.Wait()
	if root.Used() != 0 {
		t.Fatalf("root used = %d after all queries drained", root.Used())
	}
}

func TestAdmission(t *testing.T) {
	a := NewAdmission(2, 1, 1, 250*time.Millisecond)
	if err := a.Acquire(ClassRead); err != nil {
		t.Fatalf("first read: %v", err)
	}
	if err := a.Acquire(ClassRead); err != nil {
		t.Fatalf("second read: %v", err)
	}
	err := a.Acquire(ClassRead)
	var qf *QueueFullError
	if !errors.As(err, &qf) {
		t.Fatalf("third read: got %v, want *QueueFullError", err)
	}
	if qf.Class != ClassRead || qf.RetryAfter != 250*time.Millisecond || !qf.Retryable() {
		t.Fatalf("bad rejection: %+v", qf)
	}
	// Reads being full must not block writes.
	if err := a.Acquire(ClassWrite); err != nil {
		t.Fatalf("write while reads full: %v", err)
	}
	a.Release(ClassRead)
	if err := a.Acquire(ClassRead); err != nil {
		t.Fatalf("read after release: %v", err)
	}
	if got := a.Rejections(); got != 1 {
		t.Fatalf("rejections = %d, want 1", got)
	}
	d := a.Depths()
	if d[ClassRead] != 2 || d[ClassWrite] != 1 || d[ClassTxn] != 0 {
		t.Fatalf("depths = %v", d)
	}
}

func TestClassifySQL(t *testing.T) {
	cases := []struct {
		sql   string
		inTxn bool
		want  Class
	}{
		{"SELECT * FROM t", false, ClassRead},
		{"  explain select 1", false, ClassRead},
		{"INSERT INTO t VALUES (1)", false, ClassWrite},
		{"UPDATE t SET x = 1", false, ClassWrite},
		{"DELETE FROM t", false, ClassWrite},
		{"CREATE TABLE t (x INT)", false, ClassWrite},
		{"BEGIN", false, ClassTxn},
		{"START TRANSACTION", false, ClassTxn},
		{"commit;", false, ClassTxn},
		{"ROLLBACK", false, ClassTxn},
		{"SELECT * FROM t", true, ClassTxn},
		{"CHECKPOINT", false, ClassWrite},
	}
	for _, c := range cases {
		if got := ClassifySQL(c.sql, c.inTxn); got != c.want {
			t.Errorf("ClassifySQL(%q, %v) = %v, want %v", c.sql, c.inTxn, got, c.want)
		}
	}
}

func TestBackoffJitter(t *testing.T) {
	base, cap := 100*time.Millisecond, 2*time.Second
	for attempt := 0; attempt < 10; attempt++ {
		for i := 0; i < 50; i++ {
			d := Backoff(attempt, base, cap)
			raw := base << attempt
			if raw > cap {
				raw = cap
			}
			lo, hi := raw/2, raw+raw/2
			if d < lo || d > hi {
				t.Fatalf("Backoff(%d) = %v outside [%v, %v]", attempt, d, lo, hi)
			}
		}
	}
	if Jitter(0) != 0 {
		t.Fatal("Jitter(0) must be 0")
	}
	// Jitter must actually vary (stampede prevention).
	seen := map[time.Duration]bool{}
	for i := 0; i < 32; i++ {
		seen[Jitter(time.Second)] = true
	}
	if len(seen) < 2 {
		t.Fatal("Jitter produced identical delays 32 times")
	}
}

func TestContextBudget(t *testing.T) {
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context must yield nil budget")
	}
	b := NewBudget("q", 10)
	ctx := WithBudget(context.Background(), b)
	if FromContext(ctx) != b {
		t.Fatal("budget did not round-trip through context")
	}
	if WithBudget(context.Background(), nil) != context.Background() {
		t.Fatal("WithBudget(nil) must be a no-op")
	}
}
