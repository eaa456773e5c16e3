package wire

import (
	"bytes"
	"math/rand"
	"net"
	"testing"
	"time"

	"probdb/internal/core"
	"probdb/internal/dist"
)

// decodeAnyFrame is the fuzzed surface: frame parsing plus the payload
// decoder of whichever frame type arrives. It must return errors, never
// panic, on arbitrary input — the server reads these bytes straight off
// untrusted sockets.
func decodeAnyFrame(data []byte) {
	t, payload, err := ReadFrame(bytes.NewReader(data))
	if err != nil {
		return
	}
	switch t {
	case FrameResult:
		_, _ = DecodeResult(payload) //nolint:errcheck // errors are the expected outcome
	case FrameRowBatch:
		_, _ = DecodeRowBatch(payload) //nolint:errcheck
	case FrameError:
		_ = DecodeError(payload)
	case FrameWALFetch:
		_, _, _ = DecodeWALFetch(payload) //nolint:errcheck
	case FrameWALSegment:
		_, _ = DecodeWALSegment(payload) //nolint:errcheck
	case FrameQuery:
		_ = string(payload)
	}
}

// FuzzDecodeFrame mirrors internal/query's fuzz contract for the network
// surface. Seeds cover every frame type, a Result with every counter set,
// a header RowBatch with pdf cells, and mutations of both.
func FuzzDecodeFrame(f *testing.F) {
	frame := func(t FrameType, payload []byte) []byte {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, t, payload); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, byte(FramePing)})
	f.Add(frame(FrameQuery, []byte("SELECT * FROM t WHERE PROB(x) > 0.5")))
	f.Add(frame(FrameError, []byte("boom")))
	f.Add(frame(FramePong, nil))
	// Deterministic mutations of the valid frames, so `go test` (which only
	// runs the seed corpus) already exercises the malformed paths.
	r := rand.New(rand.NewSource(7))
	mutate := func(valid []byte, n int) {
		f.Add(valid)
		for i := 0; i < n; i++ {
			m := append([]byte{}, valid...)
			for k := 0; k <= r.Intn(4); k++ {
				m[r.Intn(len(m))] ^= byte(1 << r.Intn(8))
			}
			f.Add(m)
		}
	}
	mutate(frame(FrameResult, EncodeResult(&Result{
		Message:  "ok",
		Affected: 2,
		InTxn:    true,
		Stats: Stats{Rows: 2, LatencyMicros: 99, WALBytes: 3, IndexProbes: 1, IndexPruned: 8,
			PlannerFallbacks: 1, WALFsyncs: 1, WALGroupSize: 4, TxnConflicts: 1, Rejections: 5,
			ShedBytes: 6, QueueWaitMicros: 7, VecTuples: 300, ScalarTuples: 2},
	})), 64)
	mutate(frame(FrameRowBatch, EncodeRowBatch(&RowBatch{
		Name: "t",
		Cols: []Column{
			{Name: "k", Type: core.IntType},
			{Name: "x", Type: core.FloatType, Uncertain: true},
		},
		Rows: []Row{
			{Exists: 1, Cells: []Cell{
				{Kind: CellValue, Value: core.Int(1)},
				{Kind: CellPDF, PDF: dist.NewGaussian(20, 5)},
			}},
			{Exists: 0.25, Cells: []Cell{
				{Kind: CellValue, Value: core.Str("s")},
				{Kind: CellNone},
			}},
		},
	})), 32)

	f.Fuzz(func(t *testing.T, data []byte) {
		decodeAnyFrame(data)
	})
}

// FuzzDecodeError fuzzes the structured error-frame decoder — the magic
// 0x01 payload of resultVersion 7. DecodeError promises to never fail (a
// payload without the magic is a legacy plain-text error), so the contract
// under fuzzing is: never panic, always return a non-nil *ServerError, and
// clamp unknown codes to ErrGeneric so a newer server cannot make an older
// client treat an unknown refusal as retryable-with-meaning.
func FuzzDecodeError(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("table t not found"))
	f.Add(EncodeError(ErrGeneric, 0, "boom"))
	f.Add(EncodeError(ErrOverloaded, 250*time.Millisecond, "admission queue full"))
	f.Add(EncodeError(ErrBudget, time.Second, "budget"))
	f.Add(EncodeError(ErrQueueTimeout, 0, ""))
	f.Add(EncodeError(ErrReadOnly, 5*time.Second, "disk watchdog"))
	f.Add(EncodeError(ErrShardUnavailable, 100*time.Millisecond, "shard 2 down"))
	f.Add([]byte{0x01})                                    // magic alone (too short)
	f.Add([]byte{0x01, 0xff})                              // unknown code, no hint
	f.Add([]byte{0x01, 0x02, 0xff})                        // truncated uvarint hint
	f.Add(append([]byte{0x01, 0x03}, make([]byte, 12)...)) // over-long hint
	r := rand.New(rand.NewSource(13))
	valid := EncodeError(ErrOverloaded, 123*time.Millisecond, "queue full, retry later")
	for i := 0; i < 64; i++ {
		m := append([]byte{}, valid...)
		for k := 0; k <= r.Intn(4); k++ {
			m[r.Intn(len(m))] ^= byte(1 << r.Intn(8))
		}
		f.Add(m)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		se := DecodeError(data)
		if se == nil {
			t.Fatalf("DecodeError(%x) = nil", data)
		}
		if se.Code > ErrShardUnavailable {
			t.Fatalf("DecodeError(%x) code %d out of range", data, se.Code)
		}
		if se.RetryAfter < 0 {
			t.Fatalf("DecodeError(%x) negative hint %v", data, se.RetryAfter)
		}
		_ = se.Error()
		_ = se.Retryable()
	})
}

// byteConn is a connection whose peer's bytes are fixed up front: reads
// come from them, writes and deadlines are accepted and dropped.
type byteConn struct {
	net.Conn
	r *bytes.Reader
}

func (c byteConn) Read(p []byte) (int, error)       { return c.r.Read(p) }
func (c byteConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c byteConn) SetDeadline(time.Time) error      { return nil }
func (c byteConn) Close() error                     { return nil }
func (c byteConn) SetReadDeadline(time.Time) error  { return nil }
func (c byteConn) SetWriteDeadline(time.Time) error { return nil }
func (c byteConn) RemoteAddr() net.Addr             { return nil }
func (c byteConn) LocalAddr() net.Addr              { return nil }

// reassembleFrames is the fuzzed answer surface: a Client reads data as a
// server's answer to one Query, twice — drained by Query, and read with
// NextRaw — exactly what a client or the router facing a hostile or
// corrupted server does. Whatever Query accepts must render: every row is
// as wide as the header.
func reassembleFrames(t *testing.T, data []byte) {
	res, err := NewClient(byteConn{r: bytes.NewReader(data)}).Query("SELECT * FROM t")
	if err == nil && res.Table != nil {
		for _, row := range res.Table.Rows {
			if len(row.Cells) != len(res.Table.Cols) {
				t.Fatalf("Query accepted a %d-cell row under a %d-column header", len(row.Cells), len(res.Table.Cols))
			}
		}
		_ = res.Table.Render()
	}
	st, err := NewClient(byteConn{r: bytes.NewReader(data)}).QueryStream("SELECT * FROM t")
	for err == nil {
		var b *RawBatch
		if b, err = st.NextRaw(); b == nil {
			break
		}
		if b.Width() != len(st.Columns()) {
			t.Fatalf("NextRaw accepted a %d-cell batch under a %d-column header", b.Width(), len(st.Columns()))
		}
	}
}

// FuzzRowBatchReassembly fuzzes the client's answer reader: framing,
// decode and Stream's grammar — sequence, header placement, row width, one
// terminal frame — must reject, never panic on, arbitrary frame sequences.
// Seeds include a full valid answer and deterministic mutations of it.
func FuzzRowBatchReassembly(f *testing.F) {
	cols := []Column{
		{Name: "k", Type: core.IntType},
		{Name: "x", Type: core.FloatType, Uncertain: true},
	}
	row := func(i int) Row {
		return Row{Exists: 1, Cells: []Cell{
			{Kind: CellValue, Value: core.Int(int64(i))},
			{Kind: CellPDF, PDF: dist.NewGaussian(float64(i), 1)},
		}}
	}
	var stream bytes.Buffer
	for seq, b := range []*RowBatch{
		{Seq: 0, Name: "t", Cols: cols, Rows: []Row{row(1), row(2)}},
		{Seq: 1, Rows: []Row{row(3)}},
	} {
		if err := WriteFrame(&stream, FrameRowBatch, EncodeRowBatch(b)); err != nil {
			f.Fatalf("seq %d: %v", seq, err)
		}
	}
	if err := WriteFrame(&stream, FrameResult, EncodeResult(&Result{Affected: 3})); err != nil {
		f.Fatal(err)
	}
	valid := stream.Bytes()
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 64; i++ {
		m := append([]byte{}, valid...)
		for k := 0; k <= r.Intn(4); k++ {
			m[r.Intn(len(m))] ^= byte(1 << r.Intn(8))
		}
		f.Add(m)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		reassembleFrames(t, data)
	})
}

// TestReassembleFrameSoup is the plain-test variant of the reassembly
// contract, mirroring TestDecodeFrameSoup.
func TestReassembleFrameSoup(t *testing.T) {
	cols := []Column{{Name: "x", Type: core.FloatType, Uncertain: true}}
	var stream bytes.Buffer
	for _, b := range []*RowBatch{
		{Seq: 0, Name: "t", Cols: cols,
			Rows: []Row{{Exists: 1, Cells: []Cell{{Kind: CellPDF, PDF: dist.NewGaussian(0, 1)}}}}},
		{Seq: 1, Rows: []Row{{Exists: 0.5, Cells: []Cell{{Kind: CellNone}}}}},
	} {
		if err := WriteFrame(&stream, FrameRowBatch, EncodeRowBatch(b)); err != nil {
			t.Fatal(err)
		}
	}
	if err := WriteFrame(&stream, FrameResult, EncodeResult(&Result{Affected: 2})); err != nil {
		t.Fatal(err)
	}
	valid := stream.Bytes()
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 5000; trial++ {
		var data []byte
		switch trial % 3 {
		case 0:
			data = make([]byte, r.Intn(96))
			r.Read(data)
		case 1:
			data = valid[:r.Intn(len(valid))]
		default:
			data = append([]byte{}, valid...)
			for k := 0; k <= r.Intn(8); k++ {
				data[r.Intn(len(data))] ^= byte(1 << r.Intn(8))
			}
		}
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					t.Fatalf("panic on %x: %v", data, rec)
				}
			}()
			reassembleFrames(t, data)
		}()
	}
}

// TestDecodeFrameSoup is the non-fuzz variant of the same contract: random
// byte soup and random truncations/mutations of valid frames must never
// panic in plain `go test` runs.
func TestDecodeFrameSoup(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameRowBatch, EncodeRowBatch(&RowBatch{
		Name: "t",
		Cols: []Column{{Name: "x", Type: core.FloatType, Uncertain: true}},
		Rows: []Row{{Exists: 1, Cells: []Cell{{Kind: CellPDF, PDF: dist.NewGaussian(0, 1)}}}},
	})); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, FrameResult, EncodeResult(&Result{Message: "ok"})); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	for trial := 0; trial < 5000; trial++ {
		var data []byte
		switch trial % 3 {
		case 0: // pure soup
			data = make([]byte, r.Intn(64))
			r.Read(data)
		case 1: // truncated valid frame
			data = valid[:r.Intn(len(valid))]
		default: // mutated valid frame
			data = append([]byte{}, valid...)
			for k := 0; k <= r.Intn(8); k++ {
				data[r.Intn(len(data))] ^= byte(1 << r.Intn(8))
			}
		}
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					t.Fatalf("panic on %x: %v", data, rec)
				}
			}()
			decodeAnyFrame(data)
		}()
	}
}
