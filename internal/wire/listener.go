package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime/debug"
	"sync"
	"syscall"
	"time"
)

// Handler is one connection's state on the server side of the protocol.
// The Listener's frame loop answers Ping itself and hands every other
// client frame to Frame, one at a time on the connection's own goroutine.
type Handler interface {
	// Frame serves one frame. It reports whether the session continues;
	// false closes the connection.
	Frame(ft FrameType, payload []byte) bool
	// Close releases the connection's state once its session has ended.
	Close()
}

// ListenConfig tunes a Listener. Every field is required.
type ListenConfig struct {
	// Addr is the TCP listen address.
	Addr string
	// MaxConns bounds concurrently connected sessions; further connections
	// are refused with an Error frame and closed.
	MaxConns int
	// WriteTimeout bounds each response frame's write.
	WriteTimeout time.Duration
	// Name prefixes the connection-cap refusal, e.g. "server".
	Name string
	// Logf receives accept failures and session panics.
	Logf func(format string, args ...any)
	// Open builds the handler for a newly accepted connection.
	Open func(c *Conn) Handler
}

// Listener is the server side of the protocol, shared by probserve and
// probrouter: it owns the listen socket, the accept loop with its
// connection cap, the registry of live connections, and one goroutine per
// connection running the frame loop.
type Listener struct {
	cfg ListenConfig
	ln  net.Listener

	quit       chan struct{}
	acceptDone chan struct{}
	sessions   sync.WaitGroup

	mu    sync.Mutex
	conns map[*Conn]struct{}
}

// Conn is the server side of one client connection. Its write side belongs
// to the connection's goroutine: a Handler writes its responses through
// WriteFrame and BufferFrame from inside Frame.
type Conn struct {
	conn    net.Conn
	bw      *bufio.Writer
	timeout time.Duration
}

// connWriteBuffer sizes a Conn's write buffer so a full 256-row RowBatch
// of uncertain rows — 8 KB with a Gaussian column, 12 KB with a floored one
// — leaves with its frame header, and with a buffered tail and terminal
// frame, in one socket write. At bufio's 4 KiB default each such batch took
// two.
const connWriteBuffer = 64 << 10

// NewConn wraps the server side of a connection; each response frame's
// write is bounded by timeout. The Listener builds one per accepted
// connection, and a Handler runs the same over any other net.Conn, a
// net.Pipe say.
func NewConn(nc net.Conn, timeout time.Duration) *Conn {
	return &Conn{conn: nc, bw: bufio.NewWriterSize(nc, connWriteBuffer), timeout: timeout}
}

// Listen binds cfg.Addr and starts accepting connections.
func Listen(cfg ListenConfig) (*Listener, error) {
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	l := &Listener{
		cfg:        cfg,
		ln:         ln,
		quit:       make(chan struct{}),
		acceptDone: make(chan struct{}),
		conns:      map[*Conn]struct{}{},
	}
	go l.acceptLoop()
	return l, nil
}

// Addr returns the bound listen address.
func (l *Listener) Addr() net.Addr { return l.ln.Addr() }

// Conns returns the number of connected sessions.
func (l *Listener) Conns() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.conns)
}

// Shutdown stops accepting connections, wakes sessions idle between
// frames, and waits for every session to end — a session mid-statement
// finishes writing its response first. If ctx expires first, the remaining
// connections are severed, which fails their pending reads and writes, and
// Shutdown still waits for their goroutines to exit.
func (l *Listener) Shutdown(ctx context.Context) {
	close(l.quit)
	l.ln.Close() //nolint:errcheck
	<-l.acceptDone
	l.each(func(c *Conn) { c.conn.SetReadDeadline(time.Now()) }) //nolint:errcheck

	drained := make(chan struct{})
	go func() { l.sessions.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-ctx.Done():
		l.each(func(c *Conn) { c.conn.Close() }) //nolint:errcheck
		<-drained
	}
}

func (l *Listener) each(f func(c *Conn)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for c := range l.conns {
		f(c)
	}
}

func (l *Listener) stopping() bool {
	select {
	case <-l.quit:
		return true
	default:
		return false
	}
}

func (l *Listener) acceptLoop() {
	defer close(l.acceptDone)
	for {
		nc, err := l.ln.Accept()
		if err != nil {
			if !l.stopping() {
				l.cfg.Logf("accept: %v", err)
			}
			return
		}
		l.mu.Lock()
		if len(l.conns) >= l.cfg.MaxConns {
			l.mu.Unlock()
			nc.SetWriteDeadline(time.Now().Add(2 * time.Second))                                        //nolint:errcheck
			WriteFrame(nc, FrameError, EncodeError(ErrGeneric, 0, l.cfg.Name+": too many connections")) //nolint:errcheck
			nc.Close()                                                                                  //nolint:errcheck
			continue
		}
		c := NewConn(nc, l.cfg.WriteTimeout)
		l.conns[c] = struct{}{}
		l.mu.Unlock()
		l.sessions.Add(1)
		go l.serve(c)
	}
}

// serve is one connection's frame loop. A malformed frame gets a protocol
// Error and ends the session; a disconnect or Shutdown ends it silently.
func (l *Listener) serve(c *Conn) {
	defer l.sessions.Done()
	defer func() {
		l.mu.Lock()
		delete(l.conns, c)
		l.mu.Unlock()
		c.conn.Close() //nolint:errcheck
	}()
	// Backstop: a bug in a session's frame handling must cost one
	// connection, never the whole process.
	defer func() {
		if r := recover(); r != nil {
			l.cfg.Logf("session panicked: %v\n%s", r, debug.Stack())
		}
	}()
	h := l.cfg.Open(c)
	defer h.Close()

	br := bufio.NewReader(c.conn)
	for !l.stopping() {
		ft, payload, err := ReadFrame(br)
		if err != nil {
			if !isDisconnect(err) && !l.stopping() {
				c.WriteFrame(FrameError, EncodeError(ErrGeneric, 0, "protocol: "+err.Error()))
			}
			return
		}
		if ft == FramePing {
			if !c.WriteFrame(FramePong, nil) {
				return
			}
			continue
		}
		if !h.Frame(ft, payload) {
			return
		}
	}
}

// WriteFrame writes one response frame under the write timeout and flushes
// it, together with any frame BufferFrame left pending, in one socket
// write; false means the client is gone and the session should end.
func (c *Conn) WriteFrame(ft FrameType, payload []byte) bool {
	return c.BufferFrame(ft, payload) && c.bw.Flush() == nil
}

// BufferFrame writes one response frame under the write timeout without
// flushing it: it reaches the client with the next WriteFrame. A handler
// buffers a result's last RowBatch this way, so a short result costs one
// write and one client wake-up; a frame that overflows the buffer is
// written out early.
func (c *Conn) BufferFrame(ft FrameType, payload []byte) bool {
	c.conn.SetWriteDeadline(time.Now().Add(c.timeout)) //nolint:errcheck
	return WriteFrame(c.bw, ft, payload) == nil
}

// Unexpected answers a frame the handler does not serve with a protocol
// Error; the session stays usable.
func (c *Conn) Unexpected(ft FrameType) bool {
	return c.WriteFrame(FrameError, EncodeError(ErrGeneric, 0, fmt.Sprintf("protocol: unexpected %v frame", ft)))
}

// isDisconnect reports whether a read error means the session is over
// rather than that the client sent a malformed frame: EOF, a closed or
// reset connection, or the read deadline Shutdown sets to wake idle
// sessions.
func isDisconnect(err error) bool {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	return errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE)
}
