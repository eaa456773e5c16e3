package wire

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"probdb/internal/core"
	"probdb/internal/flakyconn"
)

// echoHandler is a trivial Handler: a Query is answered with a Result
// whose message is the query text, except "flood", which writes RowBatch
// frames until a write fails and so never returns on its own while the
// client keeps its connection open without reading. Every other frame is
// refused.
type echoHandler struct {
	c        *Conn
	flooding chan<- struct{}
	closed   chan<- struct{}
}

func (h *echoHandler) Frame(ft FrameType, payload []byte) bool {
	if ft != FrameQuery {
		return h.c.Unexpected(ft)
	}
	if string(payload) == "flood" {
		h.flooding <- struct{}{}
		batch := make([]byte, 64<<10)
		for h.c.WriteFrame(FrameRowBatch, batch) {
		}
		return false
	}
	return h.c.WriteFrame(FrameResult, EncodeResult(&Result{Message: string(payload)}))
}

func (h *echoHandler) Close() { h.closed <- struct{}{} }

// listenerFixture is a Listener serving echoHandlers, with the channels
// its handlers signal on.
type listenerFixture struct {
	l        *Listener
	flooding chan struct{}
	closed   chan struct{}
}

func startListener(t *testing.T, maxConns int) *listenerFixture {
	t.Helper()
	f := &listenerFixture{flooding: make(chan struct{}, 1), closed: make(chan struct{}, maxConns)}
	l, err := Listen(ListenConfig{
		Addr:         "127.0.0.1:0",
		MaxConns:     maxConns,
		WriteTimeout: time.Minute,
		Name:         "test",
		Logf:         t.Logf,
		Open: func(c *Conn) Handler {
			return &echoHandler{c: c, flooding: f.flooding, closed: f.closed}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	f.l = l
	return f
}

func (f *listenerFixture) shutdown(t *testing.T, timeout time.Duration) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	f.l.Shutdown(ctx)
}

// rawConn is a client that speaks frames directly, so a test can send
// what the Client never would.
type rawConn struct {
	t  *testing.T
	nc net.Conn
	br *bufio.Reader
}

func dialRaw(t *testing.T, l *Listener) *rawConn {
	t.Helper()
	nc, err := net.DialTimeout("tcp", l.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	return &rawConn{t: t, nc: nc, br: bufio.NewReader(nc)}
}

func (r *rawConn) send(ft FrameType, payload []byte) {
	r.t.Helper()
	if err := WriteFrame(r.nc, ft, payload); err != nil {
		r.t.Fatal(err)
	}
}

func (r *rawConn) recv() (FrameType, []byte) {
	r.t.Helper()
	ft, payload, err := ReadFrame(r.br)
	if err != nil {
		r.t.Fatal(err)
	}
	return ft, payload
}

// recvError reads one frame and requires a structured Error frame.
func (r *rawConn) recvError() *ServerError {
	r.t.Helper()
	ft, payload := r.recv()
	if ft != FrameError {
		r.t.Fatalf("got %v frame, want Error", ft)
	}
	if len(payload) == 0 || payload[0] != errFrameMagic {
		r.t.Fatalf("Error frame payload %q is not structured", payload)
	}
	return DecodeError(payload)
}

// expectClosed requires the server to have closed the connection.
func (r *rawConn) expectClosed() {
	r.t.Helper()
	if ft, _, err := ReadFrame(r.br); !errors.Is(err, io.EOF) {
		r.t.Fatalf("connection still open: read %v frame, err %v", ft, err)
	}
}

// checkNoLeak waits for the goroutine count to fall back to before.
func checkNoLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d -> %d\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestListenerFrames: the frame loop answers Ping itself, hands Query to
// the handler, and an unexpected frame type gets a structured Error while
// the session stays usable.
func TestListenerFrames(t *testing.T) {
	f := startListener(t, 4)
	defer f.shutdown(t, 5*time.Second)
	r := dialRaw(t, f.l)

	r.send(FramePing, nil)
	if ft, _ := r.recv(); ft != FramePong {
		t.Fatalf("Ping answered with %v", ft)
	}
	r.send(FrameQuery, []byte("hello"))
	ft, payload := r.recv()
	if ft != FrameResult {
		t.Fatalf("Query answered with %v", ft)
	}
	if res, err := DecodeResult(payload); err != nil || res.Message != "hello" {
		t.Fatalf("Query result %+v, %v", res, err)
	}

	r.send(FrameRowBatch, nil)
	if se := r.recvError(); se.Code != ErrGeneric || se.Msg != "protocol: unexpected RowBatch frame" {
		t.Fatalf("unexpected frame refused with %+v", se)
	}
	r.send(FramePing, nil)
	if ft, _ := r.recv(); ft != FramePong {
		t.Fatalf("Ping after a refused frame answered with %v", ft)
	}
	if n := f.l.Conns(); n != 1 {
		t.Fatalf("Conns() = %d, want 1", n)
	}
}

// TestListenerMalformedFrame: bytes that are not a frame get a protocol
// Error, then the connection is closed and its handler released.
func TestListenerMalformedFrame(t *testing.T) {
	f := startListener(t, 4)
	defer f.shutdown(t, 5*time.Second)
	r := dialRaw(t, f.l)
	if _, err := r.nc.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	if se := r.recvError(); se.Code != ErrGeneric || se.Msg != "protocol: wire: bad frame length 1195725856" {
		t.Fatalf("malformed frame refused with %+v", se)
	}
	r.expectClosed()
	<-f.closed
}

// TestListenerMaxConns: a connection past the cap is refused with a
// structured Error frame and closed, without reaching a handler.
func TestListenerMaxConns(t *testing.T) {
	f := startListener(t, 1)
	defer f.shutdown(t, 5*time.Second)
	first := dialRaw(t, f.l)
	first.send(FramePing, nil)
	first.recv() // the first session is registered

	extra := dialRaw(t, f.l)
	if se := extra.recvError(); se.Code != ErrGeneric || se.Msg != "test: too many connections" {
		t.Fatalf("refusal %+v", se)
	}
	extra.expectClosed()
	if n := f.l.Conns(); n != 1 {
		t.Fatalf("Conns() = %d after a refusal, want 1", n)
	}
}

// TestListenerShutdownWakesIdle: Shutdown ends a session idle between
// frames without waiting for its client, releases its handler, refuses
// new connections and leaves no goroutine behind.
func TestListenerShutdownWakesIdle(t *testing.T) {
	before := runtime.NumGoroutine()
	f := startListener(t, 4)
	r := dialRaw(t, f.l)
	r.send(FramePing, nil)
	r.recv()

	start := time.Now()
	f.shutdown(t, 10*time.Second)
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("Shutdown waited %v for an idle client", took)
	}
	<-f.closed
	r.expectClosed()
	if nc, err := net.DialTimeout("tcp", f.l.Addr().String(), time.Second); err == nil {
		nc.Close()
		t.Fatal("dial after Shutdown succeeded")
	}
	r.nc.Close()
	checkNoLeak(t, before)
}

// TestListenerShutdownSevers: a handler that never returns on its own —
// it writes to a client that stopped reading — holds Shutdown only until
// ctx expires; then its connection is severed and its goroutine exits.
func TestListenerShutdownSevers(t *testing.T) {
	before := runtime.NumGoroutine()
	f := startListener(t, 4)
	r := dialRaw(t, f.l)
	r.send(FrameQuery, []byte("flood"))
	<-f.flooding

	start := time.Now()
	f.shutdown(t, 100*time.Millisecond)
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("Shutdown took %v to sever a stuck handler", took)
	}
	<-f.closed
	r.nc.Close()
	checkNoLeak(t, before)
}

// TestConnBufferFrame: a buffered frame writes nothing; it leaves with the
// next WriteFrame in one socket write — a result's last RowBatch with its
// Result, or with the Error of a statement that failed after it.
func TestConnBufferFrame(t *testing.T) {
	srv, cli := net.Pipe()
	defer srv.Close()
	defer cli.Close()
	fc := flakyconn.New(srv, flakyconn.Config{})
	c := NewConn(fc, time.Minute)
	br := bufio.NewReader(cli)
	batch := EncodeRowBatch(&RowBatch{
		Name: "t", Cols: []Column{{Name: "k", Type: core.IntType}},
		Rows: []Row{{Exists: 1, Cells: []Cell{{Kind: CellValue, Value: core.Int(7)}}}},
	})
	for _, term := range []FrameType{FrameResult, FrameError} {
		before := fc.Writes()
		if !c.BufferFrame(FrameRowBatch, batch) {
			t.Fatal("BufferFrame failed")
		}
		if n := fc.Writes() - before; n != 0 {
			t.Fatalf("BufferFrame wrote to the socket %d times", n)
		}
		payload := EncodeResult(&Result{})
		if term == FrameError {
			payload = EncodeError(ErrGeneric, 0, "failed after its last batch")
		}
		sent := make(chan bool, 1)
		go func() { sent <- c.WriteFrame(term, payload) }()
		for _, want := range []FrameType{FrameRowBatch, term} {
			ft, _, err := ReadFrame(br)
			if err != nil || ft != want {
				t.Fatalf("read %v (%v), want %v", ft, err, want)
			}
		}
		if !<-sent {
			t.Fatal("WriteFrame failed")
		}
		if n := fc.Writes() - before; n != 1 {
			t.Fatalf("RowBatch then %v took %d socket writes, want 1", term, n)
		}
	}
}
