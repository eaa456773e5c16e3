package wire

import (
	"encoding/binary"
	"fmt"

	"probdb/internal/core"
)

// This file is the streamed-result half of the protocol. A server executing
// a streamable SELECT answers a Query frame not with one Result but with a
// sequence
//
//	RowBatch(seq 0, header + rows) RowBatch(seq 1, rows) … ResultEnd(stats)
//
// so the client sees the first rows before the server's scan has finished,
// and neither side ever materializes the whole relation for the transport.
// The stats ride in the trailing ResultEnd because latency and page-I/O
// counters are only known once the last row has been produced. A query that
// fails mid-stream ends with an Error frame instead of ResultEnd — by then
// some batches may already have been delivered; the client surfaces the
// error and discards them.
//
// RowBatch payload layout (sharing resultVersion and the column/row codec
// with Result frames):
//
//	u8 version | uvarint seq | u8 flags | [name, columns]  (flags bit0)
//	          | uvarint ncols (only when no header) | uvarint nrows | rows
//
// Batch 0 must carry the header (flags bit0); later batches carry the
// column count alone so they remain independently decodable.

// batchHasHeader is the RowBatch flags bit marking an embedded header
// (table name + column list); set exactly on batch 0.
const batchHasHeader byte = 1

// RowBatch is one decoded RowBatch frame: a slice of a streamed result.
// Cols is non-nil exactly on the first batch (Seq 0), where Name is also
// meaningful.
type RowBatch struct {
	Seq  uint64
	Name string
	Cols []Column
	Rows []Row
}

// EncodeRowBatch serializes a RowBatch frame payload. The header (name and
// columns) is included iff b.Cols is non-nil, which the protocol requires
// exactly on Seq 0.
func EncodeRowBatch(b *RowBatch) []byte { return AppendRowBatch(nil, b) }

// AppendRowBatch appends EncodeRowBatch's payload to buf and returns the
// extended slice — the form for a caller that reuses one frame buffer.
func AppendRowBatch(buf []byte, b *RowBatch) []byte {
	ncols := 0
	if len(b.Rows) > 0 {
		ncols = len(b.Rows[0].Cells)
	}
	buf = appendBatchHead(buf, b.Seq, b.Name, b.Cols, ncols, len(b.Rows))
	for _, row := range b.Rows {
		buf = appendRow(buf, row)
	}
	return buf
}

// appendBatchHead appends a RowBatch payload's leading fields: the header
// when cols is non-nil, else the column count alone, then the row count.
func appendBatchHead(buf []byte, seq uint64, name string, cols []Column, ncols, nrows int) []byte {
	buf = append(buf, resultVersion)
	buf = binary.AppendUvarint(buf, seq)
	if cols != nil {
		buf = append(buf, batchHasHeader)
		buf = core.AppendString(buf, name)
		buf = core.AppendColumns(buf, cols)
	} else {
		buf = append(buf, 0)
		buf = binary.AppendUvarint(buf, uint64(ncols))
	}
	return binary.AppendUvarint(buf, uint64(nrows))
}

// BatchEncoder encodes the batches of one streamed result as RowBatch
// payloads straight from the executor's tuples, header on the first: where
// each column lives is resolved once, and every row is appended into the
// caller's buffer through one reused row. The bytes are EncodeRowBatch's for
// the same batch of RowsOf(hdr, tups).
type BatchEncoder struct {
	hdr   *core.Table
	cols  []Column
	locs  []core.Locator
	cells []Cell
	seq   uint64
}

// NewBatchEncoder returns the encoder for a result with the given header.
func NewBatchEncoder(hdr *core.Table) *BatchEncoder {
	locs := hdr.Locators()
	return &BatchEncoder{hdr: hdr, cols: ColumnsOf(hdr), locs: locs, cells: make([]Cell, len(locs))}
}

// AppendNext appends the payload of the result's next batch to buf and
// returns the extended slice.
func (e *BatchEncoder) AppendNext(buf []byte, tups []*core.Tuple) []byte {
	var cols []Column
	ncols := 0
	if e.seq == 0 {
		cols = e.cols
	} else if len(tups) > 0 {
		ncols = len(e.cols)
	}
	buf = appendBatchHead(buf, e.seq, e.hdr.Name, cols, ncols, len(tups))
	e.seq++
	for _, tup := range tups {
		buf = appendRow(buf, rowOf(e.hdr, e.locs, tup, e.cells))
	}
	return buf
}

// AppendRawBatch appends a RowBatch payload whose nrows rows are already
// encoded, back to back in rows — row bytes cut from RawBatches, say — behind
// the head AppendRowBatch writes for the same batch: the header when cols is
// non-nil, else the column count ncols.
func AppendRawBatch(buf []byte, seq uint64, name string, cols []Column, ncols, nrows int, rows []byte) []byte {
	buf = appendBatchHead(buf, seq, name, cols, ncols, nrows)
	return append(buf, rows...)
}

// DecodeRowBatch parses a RowBatch frame payload. Like DecodeResult it
// never panics on malformed input; sequencing and header-placement rules
// are the BatchAssembler's job, not the codec's.
func DecodeRowBatch(payload []byte) (*RowBatch, error) {
	f, err := readBatchFrame(payload)
	if err != nil {
		return nil, err
	}
	rows, err := f.rows()
	if err != nil {
		return nil, err
	}
	return &RowBatch{Seq: f.seq, Name: f.name, Cols: f.cols, Rows: rows}, nil
}

// batchFrame is a RowBatch payload whose head — seq, header or column
// count, row count — has been read. Its rows are still to be walked: rows
// decodes them, raw checks them in place.
type batchFrame struct {
	seq          uint64
	name         string
	cols         []Column
	ncols, nrows int
	d            rdecoder
}

func readBatchFrame(payload []byte) (*batchFrame, error) {
	f := &batchFrame{d: rdecoder{buf: payload}}
	d := &f.d
	ver, err := d.byte()
	if err != nil {
		return nil, err
	}
	if ver != resultVersion {
		return nil, fmt.Errorf("wire: row batch version %d (want %d)", ver, resultVersion)
	}
	if f.seq, err = d.uvarint(); err != nil {
		return nil, err
	}
	flags, err := d.byte()
	if err != nil {
		return nil, err
	}
	if flags&batchHasHeader != 0 {
		if f.name, err = d.string(); err != nil {
			return nil, err
		}
		if f.cols, err = d.columns(); err != nil {
			return nil, err
		}
		if f.cols == nil {
			f.cols = []Column{} // zero columns still marks "header present"
		}
		f.ncols = len(f.cols)
	} else if f.ncols, err = d.count(maxColumns); err != nil {
		return nil, err
	}
	if f.nrows, err = d.rowCount(f.ncols); err != nil {
		return nil, err
	}
	return f, nil
}

// rows decodes the frame's rows.
func (f *batchFrame) rows() ([]Row, error) {
	rows, err := f.d.rows(f.nrows, f.ncols)
	if err != nil {
		return nil, err
	}
	return rows, f.end()
}

// raw checks the frame's rows in place and records where each row and cell
// starts.
func (f *batchFrame) raw() (*RawBatch, error) {
	d, w := &f.d, f.ncols+1
	b := &RawBatch{ncols: f.ncols, buf: d.buf, offs: make([]int32, f.nrows*w+1)}
	for i := 0; i < f.nrows; i++ {
		b.offs[i*w] = int32(d.off)
		if _, err := d.row(f.ncols, nil, b.offs[i*w+1:(i+1)*w]); err != nil {
			return nil, err
		}
	}
	b.offs[f.nrows*w] = int32(d.off)
	return b, f.end()
}

func (f *batchFrame) end() error {
	if f.d.off != len(f.d.buf) {
		return f.d.err("%d trailing bytes", len(f.d.buf)-f.d.off)
	}
	return nil
}

// RawBatch is a RowBatch frame whose rows stay encoded, for a reader that
// forwards rows rather than reads them: every cell has been checked exactly
// as DecodeRowBatch checks it, pdfs by dist.Check, and where each row and
// cell starts is recorded, so Cell decodes any one cell on demand and Row
// cuts a row's bytes for re-emission.
type RawBatch struct {
	ncols int
	buf   []byte
	// offs holds, per row, where the row starts and then where each of its
	// cells does; a last entry marks the end of the last row.
	offs []int32
}

// Len is the number of rows.
func (b *RawBatch) Len() int { return (len(b.offs) - 1) / (b.ncols + 1) }

// Width is the number of cells in each row.
func (b *RawBatch) Width() int { return b.ncols }

// Row returns the encoding of row i's existence probability and its first
// k cells — row i whole when k is Width — aliasing the frame's payload.
func (b *RawBatch) Row(i, k int) []byte {
	w := b.ncols + 1
	end := b.offs[(i+1)*w]
	if k < b.ncols {
		end = b.offs[i*w+1+k]
	}
	return b.buf[b.offs[i*w]:end]
}

// Cell decodes cell j of row i.
func (b *RawBatch) Cell(i, j int) (Cell, error) {
	d := rdecoder{buf: b.buf, off: int(b.offs[i*(b.ncols+1)+1+j])}
	var c [1]Cell
	err := d.cells(1, c[:], nil)
	return c[0], err
}

// EncodeResultEnd serializes a ResultEnd frame payload: a Result sans
// table (the rows already went out as batches). Any Table on r is ignored.
func EncodeResultEnd(r *Result) []byte {
	end := *r
	end.Table = nil
	return EncodeResult(&end)
}

// DecodeResultEnd parses a ResultEnd frame payload.
func DecodeResultEnd(payload []byte) (*Result, error) {
	r, err := DecodeResult(payload)
	if err != nil {
		return nil, err
	}
	if r.Table != nil {
		return nil, fmt.Errorf("wire: ResultEnd frame carries a table")
	}
	return r, nil
}

// ProtocolError is a violation of the streamed-result invariants: a batch
// whose seq duplicates, skips, or rewinds the expected sequence (e.g. a
// reconnect splicing a stale stream into a fresh one), a missing or
// repeated header, or a row wider than the header. It is typed — rather
// than a bare formatted error — so callers can distinguish "this peer is
// speaking the protocol wrong" (close the connection, never reorder or
// dedup silently) from transport failures they might retry.
type ProtocolError struct {
	// Seq and Want are the offending and expected batch sequence numbers
	// (equal when the violation is not a sequencing one).
	Seq, Want uint64
	Msg       string
}

// Error implements error.
func (e *ProtocolError) Error() string { return e.Msg }

// BatchAssembler reassembles a RowBatch sequence into one Table, enforcing
// the stream invariants: batches arrive in sequence starting at 0, the
// header appears on batch 0 and never again, and every row is as wide as
// the header. The client's Query drain and the reassembly fuzz target share
// it, so the fuzzer exercises exactly the code a hostile server would hit.
// All violations surface as *ProtocolError.
type BatchAssembler struct {
	t    *Table
	next uint64
}

// Add ingests one batch.
func (a *BatchAssembler) Add(b *RowBatch) error {
	if b.Seq != a.next {
		return &ProtocolError{Seq: b.Seq, Want: a.next,
			Msg: fmt.Sprintf("wire: row batch seq %d, want %d", b.Seq, a.next)}
	}
	if b.Seq == 0 {
		if b.Cols == nil {
			return &ProtocolError{Msg: "wire: first row batch has no header"}
		}
		a.t = &Table{Name: b.Name, Cols: b.Cols}
	} else if b.Cols != nil {
		return &ProtocolError{Seq: b.Seq, Want: b.Seq,
			Msg: fmt.Sprintf("wire: row batch %d repeats the header", b.Seq)}
	}
	for _, row := range b.Rows {
		if len(row.Cells) != len(a.t.Cols) {
			return &ProtocolError{Seq: b.Seq, Want: b.Seq,
				Msg: fmt.Sprintf("wire: row batch %d row has %d cells, header has %d columns",
					b.Seq, len(row.Cells), len(a.t.Cols))}
		}
		a.t.Rows = append(a.t.Rows, row)
	}
	a.next++
	return nil
}

// Table returns the relation assembled so far (nil before the first batch).
func (a *BatchAssembler) Table() *Table { return a.t }

// Stream is an in-progress streamed query result. Obtain one with
// Client.QueryStream, pull batches with NextBatch (decoded) or NextRaw
// (checked, left encoded) until they return nil, then read the trailing
// stats with Result. A Stream must be fully drained (or the connection
// closed) before the Client is used again — the protocol is synchronous and
// the remaining frames are still in flight.
type Stream struct {
	c        *Client
	streamed bool // server chose batch delivery (vs one legacy Result frame)
	name     string
	cols     []Column
	head     *batchFrame // the first RowBatch, its rows not yet walked
	pending  []Row       // a legacy Result's rows, not yet handed out
	next     uint64
	res      *Result
	done     bool
	err      error
}

// QueryStream sends one statement and returns a Stream over its result. If
// the server answers with a single Result frame (a non-streamable
// statement, or an older server), the Stream wraps it transparently: the
// rows arrive as one batch. Server-side failures before the first row come
// back as *ServerError. Of a streamed result's first RowBatch only the
// header is read here; its rows are walked by the first NextBatch or
// NextRaw, whichever the caller asks for.
//
// Each frame is awaited under the client's call timeout — the deadline
// bounds inter-frame gaps, not the whole (possibly long) stream.
func (c *Client) QueryStream(sql string) (*Stream, error) {
	if err := c.begin(); err != nil {
		return nil, err
	}
	if err := c.send(FrameQuery, []byte(sql)); err != nil {
		return nil, err
	}
	t, payload, err := ReadFrame(c.r)
	if err != nil {
		return nil, err
	}
	s := &Stream{c: c}
	switch t {
	case FrameResult:
		r, err := DecodeResult(payload)
		if err != nil {
			return nil, err
		}
		s.res = r
		if r.Table != nil {
			s.name = r.Table.Name
			s.cols = r.Table.Cols
			s.pending = r.Table.Rows
		} else {
			s.done = true
		}
		return s, nil
	case FrameRowBatch:
		f, err := readBatchFrame(payload)
		if err != nil {
			return nil, err
		}
		if f.seq != 0 || f.cols == nil {
			return nil, fmt.Errorf("wire: stream opened with batch seq %d (header %v)", f.seq, f.cols != nil)
		}
		s.streamed = true
		s.name = f.name
		s.cols = f.cols
		s.head = f
		s.next = 1
		return s, nil
	case FrameError:
		return nil, DecodeError(payload)
	default:
		return nil, fmt.Errorf("wire: unexpected %v frame in response to Query", t)
	}
}

// Name is the result relation's name (valid immediately after QueryStream).
func (s *Stream) Name() string { return s.name }

// Columns is the result header (nil for row-less command results).
func (s *Stream) Columns() []Column { return s.cols }

// NextBatch returns the next non-empty batch of rows, or (nil, nil) once
// the stream is exhausted. A transport or decode error poisons the stream:
// the connection is desynchronized and should be closed. A *ServerError
// (the query failed mid-stream) leaves the connection reusable.
func (s *Stream) NextBatch() ([]Row, error) {
	if len(s.pending) > 0 {
		rows := s.pending
		s.pending = nil
		return rows, nil
	}
	for {
		f, err := s.nextFrame()
		if f == nil {
			return nil, err
		}
		rows, err := f.rows()
		if err != nil {
			return nil, s.fail(err)
		}
		if len(rows) > 0 {
			return rows, nil
		}
	}
}

// NextRaw is NextBatch for a caller that forwards rows: it returns the next
// non-empty batch with its rows checked but left encoded, or (nil, nil) once
// the stream is exhausted. Errors are NextBatch's; a result that came as one
// Result frame (no server streams a plain SELECT that way) is one too.
func (s *Stream) NextRaw() (*RawBatch, error) {
	if len(s.pending) > 0 {
		return nil, s.fail(fmt.Errorf("wire: rows sent as one Result frame, not as row batches"))
	}
	for {
		f, err := s.nextFrame()
		if f == nil {
			return nil, err
		}
		b, err := f.raw()
		if err != nil {
			return nil, s.fail(err)
		}
		if b.Len() > 0 {
			return b, nil
		}
	}
}

// nextFrame returns the stream's next RowBatch with its head read, or nil
// once the stream is exhausted or has failed.
func (s *Stream) nextFrame() (*batchFrame, error) {
	if s.err != nil {
		return nil, s.err
	}
	if f := s.head; f != nil {
		s.head = nil
		return f, nil
	}
	if s.done || !s.streamed {
		// A wrapped single-Result stream is exhausted once its rows are out.
		s.done = true
		return nil, nil
	}
	if err := s.c.begin(); err != nil {
		return nil, s.fail(err)
	}
	t, payload, err := ReadFrame(s.c.r)
	if err != nil {
		return nil, s.fail(err)
	}
	switch t {
	case FrameRowBatch:
		f, err := readBatchFrame(payload)
		if err != nil {
			return nil, s.fail(err)
		}
		if f.seq != s.next || f.cols != nil {
			return nil, s.fail(fmt.Errorf("wire: row batch seq %d (want %d, no header)", f.seq, s.next))
		}
		s.next++
		return f, nil
	case FrameResultEnd:
		r, err := DecodeResultEnd(payload)
		if err != nil {
			return nil, s.fail(err)
		}
		s.res = r
		s.done = true
		return nil, nil
	case FrameError:
		// Clean protocol-level abort: don't poison the connection.
		s.done = true
		s.err = DecodeError(payload)
		return nil, s.err
	default:
		return nil, s.fail(fmt.Errorf("wire: unexpected %v frame mid-stream", t))
	}
}

func (s *Stream) fail(err error) error {
	s.err = err
	s.done = true
	return err
}

// Result returns the query's stats and message, available once NextBatch
// has returned nil. For a streamed result its Table is nil — the rows went
// through NextBatch.
func (s *Stream) Result() (*Result, error) {
	if s.err != nil {
		return nil, s.err
	}
	if !s.done {
		return nil, fmt.Errorf("wire: Result before stream end")
	}
	return s.res, nil
}

// Drain consumes the rest of the stream and assembles the full Result —
// batches reassembled into a Table for streamed delivery, the server's own
// Table passed through for legacy delivery. It is how Client.Query is
// implemented.
func (s *Stream) Drain() (*Result, error) {
	var rows []Row
	for {
		batch, err := s.NextBatch()
		if err != nil {
			return nil, err
		}
		if batch == nil {
			break
		}
		rows = append(rows, batch...)
	}
	res, err := s.Result()
	if err != nil {
		return nil, err
	}
	if s.streamed {
		r := *res
		r.Table = &Table{Name: s.name, Cols: s.cols, Rows: rows}
		return &r, nil
	}
	return res, nil
}
