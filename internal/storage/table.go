package storage

// This file persists base probabilistic tables into heap files and loads
// them back: the bridge between the model layer (internal/core) and the
// pages. The on-disk layout is a schema record followed by one record per
// tuple, with pdfs in the dist wire format — so a table of symbolic
// Gaussians costs 17 bytes per pdf on disk, exactly the representation
// economics the paper's Fig. 5 builds on.
//
// Persistence covers *base* tables: the paper's model derives everything
// else with operators, and derived tables (with phantom attributes and
// cross-table histories) are recomputed, not stored. SaveTable rejects
// tables with phantom attributes.

import (
	"encoding/binary"
	"fmt"
	"math"

	"probdb/internal/core"
	"probdb/internal/dist"
)

// formatVersion guards the record layout.
const formatVersion = 1

// SaveTable writes the table into the heap. The heap must be empty.
func SaveTable(t *core.Table, heap *Heap) error {
	if heap.NumPages() != 0 {
		return fmt.Errorf("storage: target heap is not empty")
	}
	if ph := t.PhantomAttrs(); len(ph) > 0 {
		return fmt.Errorf("storage: cannot persist derived table with phantom attributes %v", ph)
	}
	hdr, err := encodeSchema(t)
	if err != nil {
		return err
	}
	if _, err := heap.Append(hdr); err != nil {
		return err
	}
	deps := t.DepSets()
	locs := t.Locators()
	// One buffer serves every record: the heap copies each into its page.
	var rec []byte
	for _, tup := range t.Tuples() {
		rec = append(rec[:0], formatVersion)
		for _, l := range locs {
			if !l.Uncertain() {
				rec = appendValue(rec, l.Value(tup))
			}
		}
		for i := range deps {
			rec = dist.AppendEncode(rec, t.DepDist(tup, i))
		}
		if _, err := heap.Append(rec); err != nil {
			return fmt.Errorf("storage: tuple record: %w", err)
		}
	}
	return heap.Pool().Flush()
}

// LoadTable reads a table previously written by SaveTable. The loaded
// pdfs are re-registered as fresh base pdfs in reg (pass nil for a new
// registry): on-disk tables are base tables, so histories restart from
// them (Definition 2).
func LoadTable(heap *Heap, reg *core.Registry) (*core.Table, error) {
	var t *core.Table
	var deps [][]string
	var certainCols []core.Column
	first := true
	// One row layout serves every record: InsertValues copies the values
	// and keeps only the pdfs, so both slices are refilled, not reallocated.
	var certain []core.Value
	var at []int // schema offset of each certain column
	var pdfs []dist.Dist
	err := heap.Scan(func(_ RID, rec []byte) error {
		if first {
			first = false
			var err error
			if t, deps, certainCols, err = decodeSchema(rec, reg); err != nil {
				return err
			}
			certain = make([]core.Value, t.Schema().Len())
			for _, c := range certainCols {
				at = append(at, t.Schema().Index(c.Name))
			}
			pdfs = make([]dist.Dist, len(deps))
			return nil
		}
		if len(rec) < 1 || rec[0] != formatVersion {
			return fmt.Errorf("storage: bad tuple record version")
		}
		rec = rec[1:]
		for i, c := range certainCols {
			v, n, err := decodeValue(rec)
			if err != nil {
				return fmt.Errorf("storage: column %s: %w", c.Name, err)
			}
			rec = rec[n:]
			certain[at[i]] = v
		}
		for i, set := range deps {
			d, n, err := dist.Decode(rec)
			if err != nil {
				return fmt.Errorf("storage: pdf of %v: %w", set, err)
			}
			rec = rec[n:]
			pdfs[i] = d
		}
		if len(rec) != 0 {
			return fmt.Errorf("storage: %d trailing bytes in tuple record", len(rec))
		}
		return t.InsertValues(certain, pdfs)
	})
	if err != nil {
		return nil, err
	}
	if t == nil {
		return nil, fmt.Errorf("storage: empty heap (no schema record)")
	}
	return t, nil
}

func encodeSchema(t *core.Table) ([]byte, error) {
	buf := []byte{formatVersion}
	buf = appendString(buf, t.Name)
	cols := t.Schema().Columns()
	buf = binary.AppendUvarint(buf, uint64(len(cols)))
	for _, c := range cols {
		buf = appendString(buf, c.Name)
		buf = append(buf, byte(c.Type))
		if c.Uncertain {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	deps := t.DepSets()
	buf = binary.AppendUvarint(buf, uint64(len(deps)))
	for _, set := range deps {
		buf = binary.AppendUvarint(buf, uint64(len(set)))
		for _, a := range set {
			buf = appendString(buf, a)
		}
	}
	return buf, nil
}

func decodeSchema(rec []byte, reg *core.Registry) (*core.Table, [][]string, []core.Column, error) {
	if len(rec) < 1 || rec[0] != formatVersion {
		return nil, nil, nil, fmt.Errorf("storage: bad schema record version")
	}
	rec = rec[1:]
	name, n, err := decodeString(rec)
	if err != nil {
		return nil, nil, nil, err
	}
	rec = rec[n:]
	ncols, n := binary.Uvarint(rec)
	if n <= 0 || ncols > 1<<16 {
		return nil, nil, nil, fmt.Errorf("storage: bad column count")
	}
	rec = rec[n:]
	cols := make([]core.Column, ncols)
	var certain []core.Column
	for i := range cols {
		cname, n, err := decodeString(rec)
		if err != nil {
			return nil, nil, nil, err
		}
		rec = rec[n:]
		if len(rec) < 2 {
			return nil, nil, nil, fmt.Errorf("storage: truncated column descriptor")
		}
		cols[i] = core.Column{Name: cname, Type: core.AttrType(rec[0]), Uncertain: rec[1] == 1}
		rec = rec[2:]
		if !cols[i].Uncertain {
			certain = append(certain, cols[i])
		}
	}
	ndeps, n := binary.Uvarint(rec)
	if n <= 0 || ndeps > 1<<16 {
		return nil, nil, nil, fmt.Errorf("storage: bad dependency count")
	}
	rec = rec[n:]
	deps := make([][]string, ndeps)
	for i := range deps {
		na, n := binary.Uvarint(rec)
		if n <= 0 || na > 1<<16 {
			return nil, nil, nil, fmt.Errorf("storage: bad dependency set size")
		}
		rec = rec[n:]
		set := make([]string, na)
		for j := range set {
			a, n, err := decodeString(rec)
			if err != nil {
				return nil, nil, nil, err
			}
			rec = rec[n:]
			set[j] = a
		}
		deps[i] = set
	}
	schema, err := core.NewSchema(cols)
	if err != nil {
		return nil, nil, nil, err
	}
	t, err := core.NewTable(name, schema, deps, reg)
	if err != nil {
		return nil, nil, nil, err
	}
	// NewTable may append singleton sets; use its canonical ordering.
	return t, t.DepSets(), certain, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func decodeString(rec []byte) (string, int, error) {
	l, n := binary.Uvarint(rec)
	if n <= 0 || int(l) > len(rec)-n {
		return "", 0, fmt.Errorf("storage: bad string")
	}
	return string(rec[n : n+int(l)]), n + int(l), nil
}

// Value wire tags.
const (
	valNull byte = iota
	valInt
	valFloat
	valString
	valBool
)

func appendValue(buf []byte, v core.Value) []byte {
	switch v.Kind {
	case core.NullValue:
		return append(buf, valNull)
	case core.IntValue:
		buf = append(buf, valInt)
		return binary.AppendVarint(buf, v.I)
	case core.FloatValue:
		buf = append(buf, valFloat)
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.F))
	case core.StringValue:
		buf = append(buf, valString)
		return appendString(buf, v.S)
	case core.BoolValue:
		buf = append(buf, valBool)
		if v.B {
			return append(buf, 1)
		}
		return append(buf, 0)
	}
	panic(fmt.Sprintf("storage: unknown value kind %d", v.Kind))
}

func decodeValue(rec []byte) (core.Value, int, error) {
	if len(rec) == 0 {
		return core.Null, 0, fmt.Errorf("storage: truncated value")
	}
	switch rec[0] {
	case valNull:
		return core.Null, 1, nil
	case valInt:
		i, n := binary.Varint(rec[1:])
		if n <= 0 {
			return core.Null, 0, fmt.Errorf("storage: bad int")
		}
		return core.Int(i), 1 + n, nil
	case valFloat:
		if len(rec) < 9 {
			return core.Null, 0, fmt.Errorf("storage: bad float")
		}
		return core.Float(math.Float64frombits(binary.LittleEndian.Uint64(rec[1:]))), 9, nil
	case valString:
		s, n, err := decodeString(rec[1:])
		if err != nil {
			return core.Null, 0, err
		}
		return core.Str(s), 1 + n, nil
	case valBool:
		if len(rec) < 2 {
			return core.Null, 0, fmt.Errorf("storage: bad bool")
		}
		return core.Bool(rec[1] == 1), 2, nil
	}
	return core.Null, 0, fmt.Errorf("storage: unknown value tag %d", rec[0])
}
