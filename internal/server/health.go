package server

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"probdb/internal/govern"
	"probdb/internal/wire"
)

// ReadOnlyError is the typed refusal for writes while the engine is in a
// declared read-only mode — an operator- or watchdog-imposed state (disk
// space below threshold) that, unlike the durability-failure latch, is
// expected to clear at runtime. The statement was refused before
// execution, so retrying after the condition clears is always safe.
type ReadOnlyError struct {
	Reason string
}

func (e *ReadOnlyError) Error() string {
	return fmt.Sprintf("server: engine is read-only: %s", e.Reason)
}

// Retryable reports true: the write was never executed and the mode is
// transient by declaration.
func (e *ReadOnlyError) Retryable() bool { return true }

// SetReadOnly puts the engine into declared read-only mode. Idempotent;
// a second call updates the reason.
func (e *Engine) SetReadOnly(reason string) {
	e.mu.Lock()
	prev := e.readOnly
	e.readOnly = &ReadOnlyError{Reason: reason}
	e.mu.Unlock()
	if prev == nil || prev.Reason != reason {
		e.cfg.Logf("probserve: engine now read-only: %s", reason)
	}
}

// ClearReadOnly leaves declared read-only mode (the durability-failure
// latch, if set, still blocks writes — it needs a restart).
func (e *Engine) ClearReadOnly() {
	e.mu.Lock()
	was := e.readOnly != nil
	e.readOnly = nil
	e.mu.Unlock()
	if was {
		e.cfg.Logf("probserve: engine read-write again")
	}
}

// Budget returns the engine's server-wide budget (nil when accounting is
// disabled).
func (e *Engine) Budget() *govern.Budget { return e.bud }

// EngineHealth is the engine's part of a HEALTH report.
type EngineHealth struct {
	Mode        string   // "read-write", "read-only (declared: ...)", "read-only (durability: ...)"
	BudgetUsed  int64    // bytes currently reserved against the server budget
	BudgetLimit int64    // configured limit (0 = accounting disabled/unlimited)
	BudgetHigh  int64    // high-water mark
	ShedBytes   int64    // cumulative bytes reclaimed under pressure
	Conflicts   uint64   // first-writer-wins aborts
	Quarantined []string // quarantined table names, sorted
	ReplayErrs  []string // typed errors the last recovery skipped past
	Generation  uint64   // checkpoint generation
	Tables      int      // catalog size
	// The catalog's columnar batch encodings: the bytes its tables hold,
	// and the lifetime totals of encodings found built (hits) and built
	// (misses).
	ColPDFBytes  int64
	ColPDFHits   uint64
	ColPDFMisses uint64
}

// Health snapshots the engine's degradation state.
func (e *Engine) Health() EngineHealth {
	e.mu.Lock()
	defer e.mu.Unlock()
	h := EngineHealth{Mode: "read-write", Generation: e.gen, Tables: len(e.db.TableNames())}
	switch {
	case e.broken != nil:
		h.Mode = fmt.Sprintf("read-only (durability: %v)", e.broken)
	case e.readOnly != nil:
		h.Mode = fmt.Sprintf("read-only (declared: %s)", e.readOnly.Reason)
	}
	h.BudgetUsed = e.bud.Used()
	h.BudgetLimit = e.bud.Limit()
	h.BudgetHigh = e.bud.HighWater()
	h.ShedBytes = e.bud.ShedBytes()
	h.Conflicts = e.conflicts.Load()
	for _, name := range e.db.TableNames() {
		if t, ok := e.db.Table(name); ok {
			h.ColPDFBytes += t.EncodedBytes()
		}
	}
	h.ColPDFHits, h.ColPDFMisses = e.db.Registry().ColCache().Counters()
	for name := range e.quarantine {
		h.Quarantined = append(h.Quarantined, name)
	}
	sort.Strings(h.Quarantined)
	for _, re := range e.replayErrs {
		h.ReplayErrs = append(h.ReplayErrs, re.Error())
	}
	return h
}

// execHealth answers HEALTH for embedded callers (engine sessions have no
// admission queue; the network server composes its own richer report).
func (e *Engine) execHealth() (*wire.Result, error) {
	start := time.Now()
	h := e.Health()
	var b strings.Builder
	renderEngineHealth(&b, h)
	return &wire.Result{
		Message: strings.TrimRight(b.String(), "\n"),
		Stats:   wire.Stats{LatencyMicros: uint64(time.Since(start).Microseconds())},
	}, nil
}

// renderEngineHealth writes the engine lines of a HEALTH report.
func renderEngineHealth(b *strings.Builder, h EngineHealth) {
	fmt.Fprintf(b, "mode: %s\n", h.Mode)
	if h.BudgetLimit > 0 {
		fmt.Fprintf(b, "memory: %d/%d bytes (high-water %d, shed %d)\n",
			h.BudgetUsed, h.BudgetLimit, h.BudgetHigh, h.ShedBytes)
	} else {
		fmt.Fprintf(b, "memory: unlimited (used %d bytes)\n", h.BudgetUsed)
	}
	fmt.Fprintf(b, "tables: %d (generation %d), txn conflicts: %d\n", h.Tables, h.Generation, h.Conflicts)
	fmt.Fprintf(b, "colpdf-cache: %d bytes, %d hits, %d misses\n",
		h.ColPDFBytes, h.ColPDFHits, h.ColPDFMisses)
	if len(h.Quarantined) > 0 {
		fmt.Fprintf(b, "quarantined: %s\n", strings.Join(h.Quarantined, ", "))
	}
	for _, re := range h.ReplayErrs {
		fmt.Fprintf(b, "replay-error: %s\n", re)
	}
}

// healthResult composes the server's full HEALTH report: the engine state
// plus admission-queue depths and rejection counters. Served from the
// session goroutine, bypassing the admission queue, so it answers even
// when every Workers slot is occupied.
func (s *Server) healthResult() *wire.Result {
	start := time.Now()
	var b strings.Builder
	renderEngineHealth(&b, s.eng.Health())
	depths, limits := s.adm.Depths(), s.adm.Limits()
	fmt.Fprintf(&b, "admission: read %d/%d, write %d/%d, txn %d/%d (rejected %d)\n",
		depths[govern.ClassRead], limits[govern.ClassRead],
		depths[govern.ClassWrite], limits[govern.ClassWrite],
		depths[govern.ClassTxn], limits[govern.ClassTxn],
		s.adm.Rejections())
	fmt.Fprintf(&b, "sessions: %d/%d", s.ln.Conns(), s.cfg.MaxConns)
	return &wire.Result{
		Message: b.String(),
		Stats:   wire.Stats{LatencyMicros: uint64(time.Since(start).Microseconds())},
	}
}

// diskWatchdog polls free space under the data directory and flips the
// engine into declared read-only mode when it drops below the configured
// threshold — refusing writes *before* a WAL flush fails and latches the
// engine until restart. Hysteresis: the mode clears only once free space
// recovers to twice the threshold, so a filesystem hovering at the line
// does not flap. Runs until the server's quit channel closes.
func (s *Server) diskWatchdog() {
	defer s.grp.Done()
	const reason = "disk free below threshold"
	ticker := time.NewTicker(s.cfg.DiskPollInterval)
	defer ticker.Stop()
	degraded := false
	for {
		select {
		case <-s.quit:
			return
		case <-ticker.C:
		}
		free, err := s.cfg.DiskFree(s.cfg.DataDir)
		if err != nil {
			s.cfg.Logf("probserve: disk watchdog: %v", err)
			continue
		}
		switch {
		case !degraded && free < s.cfg.MinDiskFree:
			degraded = true
			s.eng.SetReadOnly(fmt.Sprintf("%s (%d < %d bytes)", reason, free, s.cfg.MinDiskFree))
		case degraded && free >= 2*s.cfg.MinDiskFree:
			degraded = false
			s.eng.ClearReadOnly()
		}
	}
}
