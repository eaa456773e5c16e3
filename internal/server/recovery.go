package server

import (
	"encoding/base64"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"probdb/internal/plan"
	"probdb/internal/query"
	"probdb/internal/storage"
	"probdb/internal/txn"
	"probdb/internal/wal"
)

// This file brings an engine back to the committed state of its data dir:
// load the snapshots the manifest names, reinstall the planner catalog,
// replay the WAL's whole units, and collect files no manifest references.

// recoverLocked brings the engine to the committed state of the data dir.
func (e *Engine) recoverLocked() error {
	fsys, dir := e.cfg.FS, e.cfg.Dir
	m, err := readManifest(fsys, dir)
	switch {
	case errors.Is(err, os.ErrNotExist):
		// No manifest: either a fresh directory or a pre-WAL layout.
		heaps, gerr := fsys.Glob(filepath.Join(dir, "*"+heapExt))
		if gerr != nil {
			return gerr
		}
		if len(heaps) > 0 {
			return fmt.Errorf("server: %s holds heap files but no MANIFEST: "+
				"the directory predates the write-ahead-log layout; re-import its tables", dir)
		}
		m = &manifest{Gen: 0}
		if werr := writeManifest(fsys, dir, m); werr != nil {
			return werr
		}
	case err != nil:
		return err
	}
	e.gen = m.Gen

	for _, ent := range m.Tables {
		if lerr := e.loadTableLocked(ent); lerr != nil {
			e.quarantine[ent.Name] = &quarantined{file: ent.File, err: lerr}
			e.cfg.Logf("probserve: quarantined table %q (%s): %v", ent.Name, ent.File, lerr)
		}
	}
	e.restorePlannerLocked(m)

	// Open (or create) this generation's WAL and replay its intact records.
	wpath := filepath.Join(dir, walFile(e.gen))
	var recs []wal.Record
	if _, serr := fsys.Stat(wpath); errors.Is(serr, os.ErrNotExist) {
		// A crash after the manifest commit but before the new WAL was
		// created: the snapshots already contain everything.
		if e.wal, err = wal.Create(fsys, wpath); err != nil {
			return err
		}
		if err := fsys.SyncDir(dir); err != nil {
			return err
		}
	} else {
		e.wal, recs, err = wal.Open(fsys, wpath)
		if errors.Is(err, wal.ErrBadMagic) {
			// A crash between the checkpoint's manifest commit and the new
			// WAL's header write (or mid-write) leaves a log whose magic
			// never became durable — and by the WAL's contract such a log
			// holds no committed records. Recreate it empty.
			e.cfg.Logf("probserve: recovery: %v; recreating empty log", err)
			if e.wal, err = wal.Create(fsys, wpath); err != nil {
				return err
			}
			if err = fsys.SyncDir(dir); err != nil {
				return err
			}
		} else if err != nil {
			return err
		}
	}
	e.gc = txn.NewGroupCommitter(e.wal)
	if e.cfg.ShipWAL {
		if err := e.buildShipChainLocked(); err != nil {
			return err
		}
	}

	// Replay the log's whole units (Open cut a torn tail unit); the reader
	// discards a marker-less unit mid-log, which was never acknowledged.
	var rd wal.Reader
	replayed := e.replay(&rd, recs)
	if rd.Discarded > 0 {
		e.cfg.Logf("probserve: recovery: discarded %d uncommitted transaction(s)", rd.Discarded)
	}
	e.gcLocked(m)
	if replayed > 0 || len(e.dirty) > 0 {
		e.cfg.Logf("probserve: recovery: replayed %d WAL statement(s) at generation %d", replayed, e.gen)
		if cerr := e.checkpointLocked(); cerr != nil {
			// Not fatal: the WAL still holds the tail durably.
			e.cfg.Logf("probserve: recovery checkpoint failed: %v", cerr)
		}
	}
	return nil
}

// restorePlannerLocked reinstalls the planner catalog the manifest recorded
// at the last checkpoint: statistics decode straight back, index definitions
// rebuild their structures from the reloaded tables. Runs before WAL replay
// so replayed DML maintains the indexes incrementally, exactly as the live
// execution did. Every failure degrades — the table plans as an unanalyzed,
// unindexed full scan — because a planner without state is merely slower,
// never wrong.
func (e *Engine) restorePlannerLocked(m *manifest) {
	for _, se := range m.Stats {
		if _, ok := e.db.Table(se.Table); !ok {
			continue // quarantined or vanished: stats die with the table
		}
		raw, err := base64.StdEncoding.DecodeString(se.Data)
		if err == nil {
			var ts *plan.TableStats
			if ts, err = plan.DecodeStats(raw); err == nil {
				e.db.InstallStats(se.Table, ts)
				continue
			}
		}
		e.cfg.Logf("probserve: recovery: dropping stats for %q (re-run ANALYZE): %v", se.Table, err)
	}
	for _, ie := range m.Indexes {
		if _, ok := e.db.Table(ie.Table); !ok {
			continue
		}
		if _, err := e.db.Exec(fmt.Sprintf("CREATE INDEX ON %s (%s)", ie.Table, ie.Col)); err != nil {
			e.cfg.Logf("probserve: recovery: dropping index on %s(%s) (re-run CREATE INDEX): %v",
				ie.Table, ie.Col, err)
		}
	}
}

// loadTableLocked reads one manifest entry's snapshot into the catalog. It is
// the only reader of snapshot files: recovery loads each once and closes it.
// A page file of the previous format (a .heap named by a v1 manifest) is
// read by its walker and the table marked dirty, so recovery's checkpoint
// rewrites it as a snapshot stream.
func (e *Engine) loadTableLocked(ent manifestEntry) error {
	path := filepath.Join(e.cfg.Dir, ent.File)
	load, pages := storage.LoadTable, strings.HasSuffix(ent.File, heapExt)
	if pages {
		load = storage.LoadHeapFile
	}
	t, err := load(e.cfg.FS, path, e.db.Registry())
	if err != nil {
		return err
	}
	if t.Name != ent.Name {
		return fmt.Errorf("server: %s holds table %q, want %q", path, t.Name, ent.Name)
	}
	if err := e.db.Attach(t); err != nil {
		return err
	}
	e.tables[ent.Name] = ent.File
	if pages {
		e.dirty[ent.Name] = true
	}
	return nil
}

// gcLocked removes files the manifest does not reference: snapshots and
// logs left behind by a crashed checkpoint, and stale manifest temp files.
// Best-effort — a leftover file is wasted space, never incorrectness.
func (e *Engine) gcLocked(m *manifest) {
	fsys, dir := e.cfg.FS, e.cfg.Dir
	live := m.files()
	for _, ext := range []string{snapExt, heapExt} {
		files, err := fsys.Glob(filepath.Join(dir, "*"+ext))
		if err != nil {
			continue
		}
		for _, p := range files {
			if !live[filepath.Base(p)] {
				fsys.Remove(p) //nolint:errcheck
			}
		}
	}
	// With shipping enabled every rolled generation is part of the LSN
	// space a replica may still be behind in, so none may be deleted.
	if !e.cfg.ShipWAL {
		cur := walFile(e.gen)
		if logs, err := fsys.Glob(filepath.Join(dir, "wal.*.log")); err == nil {
			for _, p := range logs {
				if filepath.Base(p) != cur {
					fsys.Remove(p) //nolint:errcheck
				}
			}
		}
	}
	fsys.Remove(filepath.Join(dir, manifestName+".tmp")) //nolint:errcheck
}

// replay feeds recs through rd and applies every unit it completes through
// applyLocked, stamping its tables as publish does: recovery's and the
// replica's one apply path. It returns how many statements the units held.
// A statement that fails here failed identically when first executed, so
// it is logged, not fatal (and kept for ReplayErrors if quarantined).
func (e *Engine) replay(rd *wal.Reader, recs []wal.Record) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	replayed := 0
	for _, rec := range recs {
		unit, err := rd.Next(rec)
		if err != nil {
			e.cfg.Logf("probserve: replay: %v", err)
		}
		if len(unit) == 0 {
			continue
		}
		var written []string
		for _, sql := range unit {
			stmt, err := query.Parse(sql)
			if err == nil {
				err = e.precheckLocked(stmt)
			}
			if err == nil {
				_, err = e.applyLocked(stmt)
			}
			if err != nil {
				var qe *QuarantinedTableError
				if errors.As(err, &qe) {
					e.replayErrs = append(e.replayErrs, qe)
				}
				e.cfg.Logf("probserve: replay: statement %q failed (as it may have originally): %v", sql, err)
				continue
			}
			written = append(written, e.writtenTablesLocked(stmt)...)
		}
		e.stampLocked(written)
		replayed += len(unit)
	}
	return replayed
}
