package server

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"probdb/internal/vfs"
)

// The manifest is the data directory's commit record: a tiny text file
// naming the current checkpoint generation and the snapshot file that holds
// each table's checkpointed state. It is replaced atomically (write to
// MANIFEST.tmp, fsync, rename, fsync dir), so at every instant exactly one
// complete manifest is visible — the checkpoint's commit point. Snapshot
// files are immutable once referenced: a checkpoint writes a table's new
// snapshot under a fresh generation-suffixed name and only then flips the
// manifest, which is what makes a crash at any point during a checkpoint
// harmless.
//
// Besides the table snapshots the manifest also carries the planner's
// catalog state at checkpoint time: one `stats` line per ANALYZE'd table
// (base64 JSON — Sscanf-safe, single token) and one `index` line per
// CREATE INDEX definition. Indexes persist as definitions only; recovery
// rebuilds the structures from the reloaded tables. Both are additive line
// kinds: pre-planner manifests simply have none.
//
// Format (line-oriented, CRC32C of the preceding lines in the trailer):
//
//	probdb-manifest v2
//	gen 7
//	table readings readings.7.snap
//	table sensors sensors.3.snap
//	stats readings eyJSb3dzIjo...
//	index readings temp
//	crc 89ab12cd
//
// Version 2 names snapshot streams (internal/storage). A v1 manifest, the
// previous format, names page files (.heap); it is still read, and the
// recovery checkpoint replaces it with a v2 one. A binary that knows only v1
// refuses a v2 directory at open rather than misreading its snapshots.
const (
	manifestName   = "MANIFEST"
	manifestHeader = "probdb-manifest v2"
	manifestV1     = "probdb-manifest v1"
)

type manifestEntry struct {
	Name string // table name
	File string // snapshot file basename within the data dir
}

// statsEntry is one table's ANALYZE statistics, serialized opaquely.
type statsEntry struct {
	Table string
	Data  string // base64(JSON) — decoded by the engine, not the manifest
}

// indexEntry is one CREATE INDEX definition.
type indexEntry struct {
	Table string
	Col   string
}

type manifest struct {
	Gen     uint64
	Tables  []manifestEntry
	Stats   []statsEntry
	Indexes []indexEntry
}

// files returns the set of snapshot file basenames the manifest references.
func (m *manifest) files() map[string]bool {
	s := make(map[string]bool, len(m.Tables))
	for _, e := range m.Tables {
		s[e.File] = true
	}
	return s
}

func (m *manifest) encode() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", manifestHeader)
	fmt.Fprintf(&b, "gen %d\n", m.Gen)
	sort.Slice(m.Tables, func(i, j int) bool { return m.Tables[i].Name < m.Tables[j].Name })
	for _, e := range m.Tables {
		fmt.Fprintf(&b, "table %s %s\n", e.Name, e.File)
	}
	sort.Slice(m.Stats, func(i, j int) bool { return m.Stats[i].Table < m.Stats[j].Table })
	for _, s := range m.Stats {
		fmt.Fprintf(&b, "stats %s %s\n", s.Table, s.Data)
	}
	sort.Slice(m.Indexes, func(i, j int) bool {
		if m.Indexes[i].Table != m.Indexes[j].Table {
			return m.Indexes[i].Table < m.Indexes[j].Table
		}
		return m.Indexes[i].Col < m.Indexes[j].Col
	})
	for _, ix := range m.Indexes {
		fmt.Fprintf(&b, "index %s %s\n", ix.Table, ix.Col)
	}
	body := b.String()
	sum := crc32.Checksum([]byte(body), castagnoliTable)
	return []byte(fmt.Sprintf("%scrc %08x\n", body, sum))
}

var castagnoliTable = crc32.MakeTable(crc32.Castagnoli)

func decodeManifest(raw []byte) (*manifest, error) {
	text := string(raw)
	idx := strings.LastIndex(text, "crc ")
	if idx < 0 || idx > 0 && text[idx-1] != '\n' {
		return nil, fmt.Errorf("server: manifest has no checksum line")
	}
	body, tail := text[:idx], text[idx:]
	var sum uint32
	if _, err := fmt.Sscanf(tail, "crc %x", &sum); err != nil {
		return nil, fmt.Errorf("server: manifest checksum line: %w", err)
	}
	if got := crc32.Checksum([]byte(body), castagnoliTable); got != sum {
		return nil, fmt.Errorf("server: manifest checksum mismatch (stored %08x, computed %08x)", sum, got)
	}
	lines := strings.Split(strings.TrimSuffix(body, "\n"), "\n")
	if len(lines) < 2 || lines[0] != manifestHeader && lines[0] != manifestV1 {
		return nil, fmt.Errorf("server: manifest header %q unsupported", lines[0])
	}
	m := &manifest{}
	if _, err := fmt.Sscanf(lines[1], "gen %d", &m.Gen); err != nil {
		return nil, fmt.Errorf("server: manifest gen line: %w", err)
	}
	for _, ln := range lines[2:] {
		switch {
		case strings.HasPrefix(ln, "table "):
			var e manifestEntry
			if _, err := fmt.Sscanf(ln, "table %s %s", &e.Name, &e.File); err != nil {
				return nil, fmt.Errorf("server: manifest entry %q: %w", ln, err)
			}
			m.Tables = append(m.Tables, e)
		case strings.HasPrefix(ln, "stats "):
			var s statsEntry
			if _, err := fmt.Sscanf(ln, "stats %s %s", &s.Table, &s.Data); err != nil {
				return nil, fmt.Errorf("server: manifest entry %q: %w", ln, err)
			}
			m.Stats = append(m.Stats, s)
		case strings.HasPrefix(ln, "index "):
			var ix indexEntry
			if _, err := fmt.Sscanf(ln, "index %s %s", &ix.Table, &ix.Col); err != nil {
				return nil, fmt.Errorf("server: manifest entry %q: %w", ln, err)
			}
			m.Indexes = append(m.Indexes, ix)
		default:
			return nil, fmt.Errorf("server: manifest entry %q: unknown kind", ln)
		}
	}
	return m, nil
}

// readManifest loads and validates the data dir's manifest. A missing file
// returns os.ErrNotExist (a fresh or pre-manifest directory).
func readManifest(fsys vfs.FS, dir string) (*manifest, error) {
	path := filepath.Join(dir, manifestName)
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	raw := make([]byte, st.Size())
	if _, err := f.ReadAt(raw, 0); err != nil && st.Size() > 0 {
		return nil, fmt.Errorf("server: read manifest: %w", err)
	}
	m, err := decodeManifest(raw)
	if err != nil {
		return nil, fmt.Errorf("server: %s: %w", path, err)
	}
	return m, nil
}

// writeManifest atomically replaces the manifest: tmp write, fsync, rename
// over the live file, directory fsync. When it returns nil the new manifest
// — and with it the checkpoint — is durable.
func writeManifest(fsys vfs.FS, dir string, m *manifest) error {
	tmp := filepath.Join(dir, manifestName+".tmp")
	f, err := fsys.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("server: manifest tmp: %w", err)
	}
	enc := m.encode()
	if _, err := f.WriteAt(enc, 0); err != nil {
		f.Close()
		return fmt.Errorf("server: manifest write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("server: manifest sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return fmt.Errorf("server: manifest rename: %w", err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("server: manifest dir sync: %w", err)
	}
	return nil
}
