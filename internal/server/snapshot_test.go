package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"probdb/internal/vfs"
	"probdb/internal/wal"
)

// renderSelect runs sql and renders its result.
func renderSelect(t *testing.T, e *Engine, sql string) string {
	t.Helper()
	res, err := e.Execute(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res.String()
}

// TestCheckpointLargeRow: a row whose record outgrows an 8 KiB page — a
// 600-point DISCRETE, 9 607 bytes — checkpoints, closes, rolls the WAL and
// comes back after a restart exactly as it was.
func TestCheckpointLargeRow(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenEngine(EngineConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var pts strings.Builder
	for i := 0; i < 600; i++ {
		fmt.Fprintf(&pts, ", %d:0.001", i)
	}
	wide := "DISCRETE(" + pts.String()[2:] + ")"
	mustExecute(t, e, "CREATE TABLE wide (k INT, x FLOAT UNCERTAIN)")
	mustExecute(t, e, "INSERT INTO wide (k, x) VALUES (1, "+wide+")")
	if _, err := e.Execute("CHECKPOINT"); err != nil {
		t.Fatalf("CHECKPOINT: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, walFile(1))); err != nil {
		t.Fatalf("CHECKPOINT did not roll the WAL: %v", err)
	}
	mustExecute(t, e, "INSERT INTO wide (k, x) VALUES (2, "+wide+")")
	const q = "SELECT * FROM wide"
	want := renderSelect(t, e, q)
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, walFile(2))); err != nil {
		t.Fatalf("Close did not roll the WAL: %v", err)
	}
	re, err := OpenEngine(EngineConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := renderSelect(t, re, q); got != want {
		t.Fatalf("after restart:\n%s\nwant:\n%s", got, want)
	}
}

// copyDir copies the flat directory src into a fresh temporary directory.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		raw, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestOpenV1DataDir: testdata/v1 was written by the previous snapshot
// format — a v1 manifest naming page files, an ANALYZE'd and indexed table
// with TEXT, BOOL and NULL values and a partial pdf, a table with a joint
// (MVN) dependency set, and a WAL tail. It opens, answers every query in
// testdata/v1.golden.json exactly as that format's own binary did, and
// after one restart holds snapshot streams only.
func TestOpenV1DataDir(t *testing.T) {
	var golden []struct{ SQL, Out string }
	raw, err := os.ReadFile(filepath.Join("testdata", "v1.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	dir := copyDir(t, filepath.Join("testdata", "v1"))
	for boot := 0; boot < 2; boot++ {
		e, err := OpenEngine(EngineConfig{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if q := e.Quarantined(); len(q) != 0 {
			t.Fatalf("boot %d: quarantined %v", boot, q)
		}
		for _, g := range golden {
			if got := renderSelect(t, e, g.SQL); got != g.Out {
				t.Errorf("boot %d: %s:\n%s\nwant:\n%s", boot, g.SQL, got, g.Out)
			}
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if heaps, _ := filepath.Glob(filepath.Join(dir, "*"+heapExt)); len(heaps) != 0 {
		t.Errorf("page files survive the upgrade: %v", heaps)
	}
	m, err := readManifest(vfs.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Tables) != 2 {
		t.Fatalf("manifest tables %v", m.Tables)
	}
	for _, ent := range m.Tables {
		if !strings.HasSuffix(ent.File, snapExt) {
			t.Errorf("manifest names %s for %s", ent.File, ent.Name)
		}
	}
}

// TestCorruptSnapshotSweep: every single-byte flip and every truncation of
// one table's snapshot, three row records long, quarantines exactly that
// table at the next open; its siblings load whole.
func TestCorruptSnapshotSweep(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenEngine(EngineConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var rows strings.Builder
	for i := 0; i < 600; i++ {
		fmt.Fprintf(&rows, ", (%d)", i)
	}
	mustExecute(t, e, "CREATE TABLE big (k INT)")
	mustExecute(t, e, "INSERT INTO big (k) VALUES "+rows.String()[2:])
	mustExecute(t, e, "CREATE TABLE p (k INT, x FLOAT UNCERTAIN)")
	mustExecute(t, e, "INSERT INTO p (k, x) VALUES (1, GAUSSIAN(1, 1)), (2, GAUSSIAN(2, 1))")
	mustExecute(t, e, "CREATE TABLE s (name TEXT)")
	mustExecute(t, e, "INSERT INTO s (name) VALUES ('x')")
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "big.*"+snapExt))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("big's snapshot: %v (%v)", snaps, err)
	}
	path := snaps[0]
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r, records := bytes.NewReader(good[8:]), 0 // past the magic
	for {
		if _, _, err := wal.ReadRecord(r, nil); err != nil {
			break
		}
		records++
	}
	if records < 5 { // schema, three row records, end
		t.Fatalf("big's snapshot holds %d records, want at least 5", records)
	}
	counts := map[string]int{"p": 2, "s": 1}
	open := func(what string, content []byte) {
		t.Helper()
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		e, err := OpenEngine(EngineConfig{Dir: dir})
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		defer e.Abort()
		if q := e.Quarantined(); len(q) != 1 || q["big"] == nil {
			t.Fatalf("%s: quarantined %v, want exactly big", what, q)
		}
		for name, n := range counts {
			if tb, ok := e.DB().Table(name); !ok || tb.Len() != n {
				t.Fatalf("%s: table %s not loaded whole", what, name)
			}
		}
	}
	bad := append([]byte(nil), good...)
	for i := range bad {
		bad[i] ^= 0xff
		open(fmt.Sprintf("byte %d flipped", i), bad)
		bad[i] ^= 0xff
	}
	for n := 0; n < len(good); n++ {
		open(fmt.Sprintf("cut to %d bytes", n), good[:n])
	}
}
