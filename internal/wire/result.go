package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"probdb/internal/core"
	"probdb/internal/dist"
)

// resultVersion guards the Result and RowBatch payload layouts. Version 2
// appended the WALBytes counter to the stats block; version 3 appended the
// pdf-mass cache hit/miss counters; version 4 appended the planner counters
// (index probes, index-pruned tuples, planner fallbacks); version 5
// introduced streamed result delivery (RowBatch frames, which reuse this
// version and the column/row codec below); version 6 appended the
// group-commit/transaction counters (WAL fsyncs, group size, conflicts)
// and the in-transaction flag bit; version 7 introduced structured Error
// frames (ErrCode + RetryAfter, see errframe.go) and appended the
// governance counters (admission rejections, shed bytes, queue wait);
// version 8 appended the kernel counters (tuples evaluated on the
// vectorized columnar lanes vs the scalar reference path). Version 9 gave
// every answer one shape: rows travel only in RowBatch frames, a Result
// carries no table and ends every answer (version 8's ResultEnd frame is
// gone), and the five stats slots that always read 0 (page reads, hits and
// writes, mass-cache hits and misses) left the payload.
const resultVersion = 9

// maxColumns bounds a decoded column count — far above any real schema,
// low enough that a hostile count cannot drive a large allocation.
const maxColumns = 1 << 12

// Stats is the per-query execution accounting carried in every Result
// frame: result cardinality, wall latency and the bytes the statement
// appended to the write-ahead log (the durability cost of a mutation; zero
// for reads and for checkpointed-away windows). PageReads, PageHits,
// PageWrites, MassCacheHits and MassCacheMiss are always 0 and never cross
// the wire: the server keeps no buffer pool and no pdf-mass cache. The
// fields stay for the callers that still read them.
// The planner trio accounts for the statement's use of access paths:
// IndexProbes is how many index lookups answered part of the WHERE clause,
// IndexPruned how many tuples those probes excluded without evaluating
// their pdfs, and PlannerFallbacks how many times an applicable index was
// bypassed (multi-table query, unindexable conjunct, runtime degradation).
// The group-commit trio makes WAL batching observable per statement:
// WALFsyncs is 1 when this statement's session performed its commit group's
// fsync (it "led" the group) and 0 when another session's fsync carried it —
// under concurrent commit traffic the fleet-wide mean is well below 1.
// WALGroupSize is the number of WAL records the carrying fsync made durable
// (0 for reads). TxnConflicts counts first-writer-wins aborts observed
// engine-wide during the statement (normally 0 or, for a failed COMMIT, 1).
// The governance trio (version 7) makes overload behavior observable:
// Rejections is the server's cumulative admission-rejection count,
// ShedBytes the cumulative memory the server budget reclaimed by cancelling
// queries under pressure (both monotone server-wide gauges sampled at
// statement end), and QueueWaitMicros how long this statement waited for
// one of the server's execution slots.
// The kernel pair (version 8) makes the execution strategy of the filter
// kernels observable: VecTuples counts tuples the statement evaluated on
// the vectorized columnar lanes, ScalarTuples those that took the scalar
// per-tuple reference path (odd distributions, non-vectorizable selections,
// or vectorization disabled).
type Stats struct {
	Rows          uint64
	LatencyMicros uint64
	PageReads     uint64
	PageHits      uint64
	PageWrites    uint64
	WALBytes      uint64
	// MassCacheHits and MassCacheMiss are always 0, like the page counters.
	MassCacheHits    uint64
	MassCacheMiss    uint64
	IndexProbes      uint64
	IndexPruned      uint64
	PlannerFallbacks uint64
	WALFsyncs        uint64
	WALGroupSize     uint64
	TxnConflicts     uint64
	Rejections       uint64
	ShedBytes        uint64
	QueueWaitMicros  uint64
	VecTuples        uint64
	ScalarTuples     uint64
}

// Result is one statement's outcome: a message and affected count, Stats
// always, and for a SELECT the Table its RowBatch frames carried. The
// Result frame itself carries no rows — EncodeResult ignores Table, which
// Stream.Drain and Session.Execute fill from the batches. InTxn reports
// whether the session is inside an explicit transaction after this
// statement — shells use it for a prompt indicator.
type Result struct {
	Message  string
	Affected uint64
	Stats    Stats
	Table    *Table
	InTxn    bool
}

// Column describes one visible result column: the core descriptor, so a
// result header and a snapshot's schema share one codec
// (core.AppendColumns).
type Column = core.Column

// Table is a result relation: certain cells as values, uncertain cells as
// the column's marginal pdf (decoded back into a live dist.Dist on the
// client, so PROB-style post-processing needs no extra round trip).
type Table struct {
	Name string
	Cols []Column
	Rows []Row
}

// Row is one result tuple: its existence probability (mass of the tuple's
// pdfs; < 1 for partial pdfs) and one cell per visible column.
type Row struct {
	Exists float64
	Cells  []Cell
}

// CellKind discriminates the variants of a result cell.
type CellKind byte

// Cell kinds: a certain value, an uncertain column's marginal pdf, or
// nothing (the pdf was unavailable, rendered as "?").
const (
	CellValue CellKind = iota
	CellPDF
	CellNone
)

// Cell is one result cell.
type Cell struct {
	Kind  CellKind
	Value core.Value // when Kind == CellValue
	PDF   dist.Dist  // when Kind == CellPDF
}

// String renders the result for a console, mirroring query.Result.String.
func (r *Result) String() string {
	if r.Table != nil {
		return r.Table.Render()
	}
	return r.Message
}

// Render formats the table like core.Table.Render: header line, then one
// bracketed line per tuple with pdfs in their symbolic form.
func (t *Table) Render() string {
	var b strings.Builder
	b.WriteString(HeaderLine(t.Name, t.Cols))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		b.WriteString(RenderRow(t.Cols, row))
		b.WriteByte('\n')
	}
	return b.String()
}

// HeaderLine formats a result header ("name (col TYPE, ...)", no trailing
// newline). A streaming client prints it once, before the first row batch.
func HeaderLine(name string, cols []Column) string {
	parts := make([]string, len(cols))
	for i, c := range cols {
		u := ""
		if c.Uncertain {
			u = " UNCERTAIN"
		}
		parts[i] = fmt.Sprintf("%s %v%s", c.Name, c.Type, u)
	}
	return fmt.Sprintf("%s (%s)", name, strings.Join(parts, ", "))
}

// RenderRow formats one result row (no trailing newline). Render is built
// from HeaderLine and RenderRow, so printing a stream row by row yields the
// same bytes as rendering the assembled table.
func RenderRow(cols []Column, row Row) string {
	cells := make([]string, 0, len(cols)+1)
	for i, c := range cols {
		cell := row.Cells[i]
		switch cell.Kind {
		case CellValue:
			cells = append(cells, fmt.Sprintf("%s=%s", c.Name, cell.Value.Render()))
		case CellPDF:
			cells = append(cells, fmt.Sprintf("%s=%v", c.Name, cell.PDF))
		default:
			cells = append(cells, "?")
		}
	}
	if row.Exists < 1 {
		cells = append(cells, fmt.Sprintf("Pr(exists)=%.4g", row.Exists))
	}
	return fmt.Sprintf("  [%s]", strings.Join(cells, ", "))
}

// ColumnsOf lists a core table's visible columns in wire form — the header
// a streamed result ships once, ahead of its first row batch.
func ColumnsOf(t *core.Table) []Column {
	return append([]Column(nil), t.Schema().Columns()...)
}

// RowsOf converts a batch of tuples from t into wire rows, resolving where
// each column lives once per call (core.Table.Locators).
func RowsOf(t *core.Table, tups []*core.Tuple) []Row {
	locs := t.Locators()
	rows := make([]Row, 0, len(tups))
	for _, tup := range tups {
		rows = append(rows, rowOf(t, locs, tup, make([]Cell, len(locs))))
	}
	return rows
}

// rowOf fills cells with the tuple's visible columns, read through the
// header's locators, and returns the row.
func rowOf(t *core.Table, locs []core.Locator, tup *core.Tuple, cells []Cell) Row {
	for i, l := range locs {
		if l.Uncertain() {
			cells[i] = Cell{Kind: CellPDF, PDF: l.Dist(tup)}
		} else {
			cells[i] = Cell{Kind: CellValue, Value: l.Value(tup)}
		}
	}
	return Row{Exists: t.ExistenceProb(tup), Cells: cells}
}

// appendDist appends a pdf cell's payload — the dist codec's encoding behind
// its uvarint length — without an intermediate buffer: the encoding is
// appended first and shifted right by the width of its length. Shapes
// outside the codec (e.g. affine-transformed views) are collapsed to their
// generic grid/discrete form first — the same fallback the paper's storage
// layer uses for non-closed-form results.
func appendDist(buf []byte, d dist.Dist) []byte {
	start := len(buf)
	buf = appendEncoded(buf, d)
	n := len(buf) - start
	var hdr [binary.MaxVarintLen64]byte
	w := binary.PutUvarint(hdr[:], uint64(n))
	buf = append(buf, hdr[:w]...)
	copy(buf[start+w:], buf[start:start+n])
	copy(buf[start:], hdr[:w])
	return buf
}

// appendEncoded appends d's codec encoding, collapsing a shape the codec
// does not know (it panics on those) after dropping what it had appended.
func appendEncoded(buf []byte, d dist.Dist) (out []byte) {
	defer func() {
		if recover() != nil {
			out = dist.AppendEncode(buf, dist.Collapse(d, dist.Options{}))
		}
	}()
	return dist.AppendEncode(buf, d)
}

// resultInTxn is the Result flags bit marking an open transaction; no other
// bit is defined.
const resultInTxn byte = 2

// EncodeResult serializes a Result frame payload: flags, affected count,
// message and stats. A Table on r is not encoded.
func EncodeResult(r *Result) []byte {
	buf := []byte{resultVersion}
	var flags byte
	if r.InTxn {
		flags |= resultInTxn
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, r.Affected)
	buf = core.AppendString(buf, r.Message)
	for _, v := range r.Stats.onWire() {
		buf = binary.AppendUvarint(buf, *v)
	}
	return buf
}

// onWire lists the counters a Result payload carries, in payload order.
func (s *Stats) onWire() [14]*uint64 {
	return [...]*uint64{&s.Rows, &s.LatencyMicros, &s.WALBytes, &s.IndexProbes, &s.IndexPruned,
		&s.PlannerFallbacks, &s.WALFsyncs, &s.WALGroupSize, &s.TxnConflicts, &s.Rejections,
		&s.ShedBytes, &s.QueueWaitMicros, &s.VecTuples, &s.ScalarTuples}
}

// appendRow serializes one row: the existence probability then one tagged
// cell per column.
func appendRow(buf []byte, row Row) []byte {
	buf = appendFloat(buf, row.Exists)
	for i := range row.Cells {
		cell := &row.Cells[i]
		buf = append(buf, byte(cell.Kind))
		switch cell.Kind {
		case CellValue:
			buf = core.AppendValue(buf, cell.Value)
		case CellPDF:
			buf = appendDist(buf, cell.PDF)
		}
	}
	return buf
}

// DecodeResult parses a Result frame payload. It never panics on malformed
// input, and refuses unknown flag bits and trailing bytes.
func DecodeResult(payload []byte) (*Result, error) {
	d := &rdecoder{buf: payload}
	ver, err := d.byte()
	if err != nil {
		return nil, err
	}
	if ver != resultVersion {
		return nil, fmt.Errorf("wire: result version %d (want %d)", ver, resultVersion)
	}
	flags, err := d.byte()
	if err != nil {
		return nil, err
	}
	if flags&^resultInTxn != 0 {
		return nil, d.err("unknown result flags %#x", flags)
	}
	r := &Result{InTxn: flags&resultInTxn != 0}
	if r.Affected, err = d.uvarint(); err != nil {
		return nil, err
	}
	if r.Message, err = d.string(); err != nil {
		return nil, err
	}
	for _, p := range r.Stats.onWire() {
		if *p, err = d.uvarint(); err != nil {
			return nil, err
		}
	}
	if d.off != len(d.buf) {
		return nil, d.err("%d trailing bytes", len(d.buf)-d.off)
	}
	return r, nil
}

// columns parses a count-prefixed column list.
func (d *rdecoder) columns() ([]Column, error) {
	cols, n, err := core.DecodeColumns(d.buf[d.off:], maxColumns)
	if err != nil {
		return nil, d.err("columns: %v", err)
	}
	d.off += n
	return cols, nil
}

// rowCount parses a row count and rejects counts the remaining buffer
// cannot possibly hold: a row costs at least 8 bytes (existence float) plus
// one kind byte per column.
func (d *rdecoder) rowCount(ncols int) (int, error) {
	nrows, err := d.count(MaxPayload)
	if err != nil {
		return 0, err
	}
	if nrows*(8+max(ncols, 1)) > len(d.buf)-d.off+8+max(ncols, 1) {
		return 0, d.err("row count %d exceeds buffer", nrows)
	}
	return nrows, nil
}

// rows parses nrows rows of ncols cells into one presized slice. The rows'
// cells are cut from one slab with full-slice expressions, so an append to
// one row's cells reallocates rather than overwriting the next row's.
func (d *rdecoder) rows(nrows, ncols int) ([]Row, error) {
	if nrows == 0 {
		return nil, nil
	}
	rows := make([]Row, nrows)
	cells := make([]Cell, nrows*ncols)
	for i := range rows {
		lo, hi := i*ncols, (i+1)*ncols
		rows[i].Cells = cells[lo:hi:hi]
		var err error
		if rows[i].Exists, err = d.row(ncols, rows[i].Cells, nil); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// row walks one row: its existence probability, which must lie in [0, 1],
// then ncols tagged cells (see cells). It returns the probability.
func (d *rdecoder) row(ncols int, cells []Cell, offs []int32) (float64, error) {
	exists, err := d.float()
	if err != nil {
		return 0, err
	}
	if !(exists >= 0 && exists <= 1) {
		return 0, d.err("existence probability %v outside [0, 1]", exists)
	}
	return exists, d.cells(ncols, cells, offs)
}

// cells walks n tagged cells, checking each as the codec requires.
// Decoding, it fills out, whose cells must be zero; checking in place (out
// nil), it records where each cell starts in offs instead, checks a pdf
// with dist.Check rather than dist.Decode and copies no string.
func (d *rdecoder) cells(n int, out []Cell, offs []int32) error {
	for i := 0; i < n; i++ {
		var c *Cell
		if out != nil {
			c = &out[i]
		} else {
			offs[i] = int32(d.off)
		}
		kind, err := d.byte()
		if err != nil {
			return err
		}
		switch CellKind(kind) {
		case CellValue:
			v, err := d.value(c != nil)
			if err != nil {
				return err
			}
			if c != nil {
				c.Kind, c.Value = CellValue, v
			}
		case CellPDF:
			n, err := d.count(MaxPayload)
			if err != nil {
				return err
			}
			if n > len(d.buf)-d.off {
				return d.err("pdf length %d exceeds buffer", n)
			}
			enc := d.buf[d.off : d.off+n]
			var used int
			if c != nil {
				c.Kind = CellPDF
				c.PDF, used, err = dist.Decode(enc)
			} else {
				used, err = dist.Check(enc)
			}
			if err != nil {
				return fmt.Errorf("wire: pdf: %w", err)
			}
			if used != n {
				return d.err("pdf has %d trailing bytes", n-used)
			}
			d.off += n
		case CellNone:
			if c != nil {
				c.Kind = CellNone
			}
		default:
			return d.err("unknown cell kind %d", kind)
		}
	}
	return nil
}

func appendFloat(buf []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
}

// rdecoder walks a Result payload with bounds checks.
type rdecoder struct {
	buf []byte
	off int
}

func (d *rdecoder) err(format string, args ...any) error {
	return fmt.Errorf("wire: decode at offset %d: %s", d.off, fmt.Sprintf(format, args...))
}

func (d *rdecoder) byte() (byte, error) {
	if d.off >= len(d.buf) {
		return 0, d.err("unexpected end of payload")
	}
	b := d.buf[d.off]
	d.off++
	return b, nil
}

func (d *rdecoder) float() (float64, error) {
	if d.off+8 > len(d.buf) {
		return 0, d.err("unexpected end of payload")
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v, nil
}

func (d *rdecoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, d.err("bad uvarint")
	}
	d.off += n
	return v, nil
}

func (d *rdecoder) count(limit int) (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(limit) {
		return 0, d.err("count %d exceeds limit %d", v, limit)
	}
	return int(v), nil
}

// bytes reads a length-prefixed string, aliasing the payload.
func (d *rdecoder) bytes() ([]byte, error) {
	n, err := d.count(MaxPayload)
	if err != nil {
		return nil, err
	}
	if n > len(d.buf)-d.off {
		return nil, d.err("string length %d exceeds payload", n)
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b, nil
}

func (d *rdecoder) string() (string, error) {
	b, err := d.bytes()
	return string(b), err
}

// value reads one tagged certain value; with keep false it only checks it
// (a string value is then not copied out of the payload).
func (d *rdecoder) value(keep bool) (core.Value, error) {
	v, n, err := core.DecodeValue(d.buf[d.off:], keep)
	if err != nil {
		return core.Null, d.err("value: %v", err)
	}
	d.off += n
	return v, nil
}
