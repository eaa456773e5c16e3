package server

import (
	"encoding/base64"
	"fmt"
	"path/filepath"
	"sort"

	"probdb/internal/storage"
	"probdb/internal/wal"
)

// checkpointLocked folds the WAL into fresh snapshots:
//
//  1. every dirty table's current state is written to a new
//     generation-named snapshot file and fsync'd (existing snapshots are
//     never touched);
//  2. the manifest is atomically replaced — the commit point;
//  3. a fresh WAL for the new generation is created and the old one,
//     whose records the snapshots now subsume, is deleted with any
//     unreferenced snapshot files.
//
// A crash before step 2 leaves the old manifest + old WAL authoritative; a
// crash after it leaves the new snapshots authoritative with an empty or
// absent WAL. Both replay to the same committed state.
func (e *Engine) checkpointLocked() error {
	if e.cfg.Dir == "" {
		return nil
	}
	if e.broken != nil {
		return e.broken
	}
	// Drain the group-commit queue first: every enqueued record must be in
	// the old log before it is folded away and rolled (their sessions may
	// still be in Wait — the flush completes their tickets). After Flush no
	// writer touches e.wal, because Enqueue requires e.mu.
	if e.gc != nil {
		if err := e.gc.Flush(); err != nil {
			return fmt.Errorf("server: checkpoint: WAL flush: %w", err)
		}
	}
	if len(e.dirty) == 0 && e.wal.Empty() {
		return nil
	}
	fsys, dir := e.cfg.FS, e.cfg.Dir
	gen := e.gen + 1

	newFiles := map[string]string{} // rewritten table → its fresh snapshot file
	fail := func(err error) error {
		for _, file := range newFiles {
			fsys.Remove(filepath.Join(dir, file)) //nolint:errcheck
		}
		return err
	}
	for name := range e.dirty {
		t, ok := e.db.Table(name)
		if !ok {
			continue // created then dropped within one WAL window
		}
		file := fmt.Sprintf("%s.%d%s", name, gen, snapExt)
		newFiles[name] = file
		if err := storage.SaveTable(fsys, filepath.Join(dir, file), t); err != nil {
			return fail(fmt.Errorf("server: checkpoint %s: %w", name, err))
		}
	}
	// Make the new files' directory entries durable before referencing them.
	if err := fsys.SyncDir(dir); err != nil {
		return fail(err)
	}

	m := &manifest{Gen: gen}
	for name, file := range e.tables {
		if _, rewritten := newFiles[name]; !rewritten {
			m.Tables = append(m.Tables, manifestEntry{Name: name, File: file})
		}
	}
	for name, file := range newFiles {
		m.Tables = append(m.Tables, manifestEntry{Name: name, File: file})
	}
	for name, q := range e.quarantine {
		m.Tables = append(m.Tables, manifestEntry{Name: name, File: q.file})
	}
	// Planner catalog: every surviving table's current stats and index
	// definitions ride along in the manifest (quarantined tables have none —
	// their planner state was discarded with the catalog entry).
	for _, ent := range m.Tables {
		if ts := e.db.TableStats(ent.Name); ts != nil {
			raw, err := ts.Encode()
			if err != nil {
				return fail(fmt.Errorf("server: checkpoint stats %s: %w", ent.Name, err))
			}
			m.Stats = append(m.Stats, statsEntry{Table: ent.Name, Data: base64.StdEncoding.EncodeToString(raw)})
		}
		cols := make([]string, 0, 2)
		for col := range e.db.IndexedCols(ent.Name) {
			cols = append(cols, col)
		}
		sort.Strings(cols)
		for _, col := range cols {
			m.Indexes = append(m.Indexes, indexEntry{Table: ent.Name, Col: col})
		}
	}
	if err := writeManifest(fsys, dir, m); err != nil {
		return fail(err)
	}

	// Committed. Swap in the new snapshots and the new generation's WAL.
	e.gen = gen
	for name, file := range newFiles {
		e.tables[name] = file
	}
	e.dirty = map[string]bool{}

	oldWal := e.wal
	nw, err := wal.Create(fsys, filepath.Join(dir, walFile(gen)))
	if err != nil {
		// The manifest already references the new generation; without its
		// WAL no further write can be made durable. Latch read-only.
		e.broken = fmt.Errorf("server: checkpoint committed but WAL creation failed: %w", err)
		return e.broken
	}
	if err := fsys.SyncDir(dir); err != nil {
		nw.Close() //nolint:errcheck
		e.broken = fmt.Errorf("server: checkpoint committed but WAL creation failed: %w", err)
		return e.broken
	}
	e.wal = nw
	if e.gc != nil {
		e.gc.SetLog(nw)
	}
	if oldWal != nil {
		if e.cfg.ShipWAL {
			// The just-rolled generation is drained (Flush above) and will
			// never be appended to again: freeze its stream length into the
			// shipping chain before the new generation starts at chainBase.
			g := shipGen{path: oldWal.Path(), size: oldWal.StreamLen()}
			e.chain = append(e.chain, g)
			e.chainBase += g.size
		}
		oldWal.Close() //nolint:errcheck
	}
	e.gcLocked(m)
	return nil
}
