package wire

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"probdb/internal/govern"
)

// ServerError is a query failure reported by the server in an Error frame —
// the remote analogue of the error query.DB.Exec returns. Structured
// frames (resultVersion 7) additionally carry a machine-readable Code and,
// for refusals the server guarantees were never executed, a RetryAfter
// backoff hint.
type ServerError struct {
	Msg        string
	Code       ErrCode
	RetryAfter time.Duration
}

// Error implements error.
func (e *ServerError) Error() string {
	if e.Code == ErrGeneric {
		return e.Msg
	}
	return fmt.Sprintf("%s (%s)", e.Msg, e.Code)
}

// Retryable reports whether resubmitting the statement is safe: true only
// for refusals issued before execution (overload, budget, queue deadline,
// read-only writes), so even non-idempotent writes can retry blindly.
func (e *ServerError) Retryable() bool { return e.Code != ErrGeneric }

// DefaultCallTimeout bounds one request/response round trip (deadline on
// both the write and the read) unless SetCallTimeout overrides it. It is
// generous because a query may sit in the server's admission queue behind
// long-running work before it even starts executing.
const DefaultCallTimeout = 60 * time.Second

// Client is a synchronous connection to a probserve server: one outstanding
// request at a time (the session model the server implements). It is not
// safe for concurrent use; open one Client per goroutine.
//
// Every call (Query, Ping) runs under a deadline — DefaultCallTimeout
// unless changed with SetCallTimeout — so a hung server or half-dead
// network surfaces as a timeout error instead of blocking the caller
// forever.
type Client struct {
	conn    net.Conn
	r       *bufio.Reader
	w       *bufio.Writer
	timeout time.Duration
}

// Dial connects to a server at addr ("host:port").
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// RetryConfig tunes DialRetry's backoff loop. Zero values take defaults:
// 5 attempts, 100 ms base delay doubling to a 2 s cap.
type RetryConfig struct {
	Attempts  int
	BaseDelay time.Duration
	MaxDelay  time.Duration
}

func (rc *RetryConfig) fill() {
	if rc.Attempts < 1 {
		rc.Attempts = 5
	}
	if rc.BaseDelay <= 0 {
		rc.BaseDelay = 100 * time.Millisecond
	}
	if rc.MaxDelay <= 0 {
		rc.MaxDelay = 2 * time.Second
	}
}

// DialRetry connects like Dial but retries with jittered exponential
// backoff — the client-side answer to a server that is still replaying its
// WAL (startup recovery can briefly postpone the listener). The jitter
// matters after a restart: without it, every reconnecting client of a
// bounced server sleeps the identical schedule and stampedes back in
// lockstep. It returns the last dial error after the attempts are
// exhausted.
func DialRetry(addr string, rc RetryConfig) (*Client, error) {
	rc.fill()
	var lastErr error
	for i := 0; i < rc.Attempts; i++ {
		if i > 0 {
			time.Sleep(govern.Backoff(i-1, rc.BaseDelay, rc.MaxDelay))
		}
		c, err := Dial(addr)
		if err == nil {
			return c, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("wire: dial %s failed after %d attempts: %w", addr, rc.Attempts, lastErr)
}

// NewClient wraps an established connection (for tests and custom dialers).
func NewClient(conn net.Conn) *Client {
	return &Client{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn), timeout: DefaultCallTimeout}
}

// SetCallTimeout changes the per-call deadline; 0 (or negative) disables
// deadlines entirely, e.g. for deliberately long analytical queries.
func (c *Client) SetCallTimeout(d time.Duration) { c.timeout = d }

// begin arms the connection deadline for one call; calls with deadlines
// disabled clear any leftover deadline.
func (c *Client) begin() error {
	if c.timeout <= 0 {
		return c.conn.SetDeadline(time.Time{})
	}
	return c.conn.SetDeadline(time.Now().Add(c.timeout))
}

// Query sends one statement and waits for its complete Result, draining
// the answer's RowBatch frames into its Table. Server-side query failures
// come back as *ServerError; transport failures (including a deadline
// expiry, which bounds each frame rather than the whole answer) as
// ordinary errors. For incremental consumption use QueryStream directly.
func (c *Client) Query(sql string) (*Result, error) {
	st, err := c.QueryStream(sql)
	if err != nil {
		return nil, err
	}
	return st.Drain()
}

// QueryRetry runs Query, resubmitting on retryable server refusals
// (overload, budget pressure, queue deadlines — all guaranteed never
// executed) up to attempts times. Each retry sleeps the server's
// RetryAfter hint when one was sent, else the shared jittered exponential
// curve; either way the hint is jittered so a rejected fleet does not
// resubmit in lockstep. Non-retryable errors and transport failures
// return immediately. Do not use inside an explicit transaction: a BEGIN
// may have succeeded even if a later statement was refused, and replaying
// one statement of a txn is not replaying the txn.
func (c *Client) QueryRetry(sql string, attempts int) (*Result, error) {
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			se, _ := lastErr.(*ServerError)
			if se != nil && se.RetryAfter > 0 {
				time.Sleep(govern.Jitter(se.RetryAfter))
			} else {
				time.Sleep(govern.Backoff(i-1, 50*time.Millisecond, 2*time.Second))
			}
		}
		res, err := c.Query(sql)
		if err == nil {
			return res, nil
		}
		se, ok := err.(*ServerError)
		if !ok || !se.Retryable() {
			return nil, err
		}
		lastErr = err
	}
	return nil, lastErr
}

// Ping round-trips a Ping frame.
func (c *Client) Ping() error {
	if err := c.begin(); err != nil {
		return err
	}
	if err := c.send(FramePing, nil); err != nil {
		return err
	}
	t, payload, err := ReadFrame(c.r)
	if err != nil {
		return err
	}
	switch t {
	case FramePong:
		return nil
	case FrameError:
		// e.g. a connection-limit refusal sent before the server saw the Ping
		return DecodeError(payload)
	default:
		return fmt.Errorf("wire: unexpected %v frame in response to Ping", t)
	}
}

// Close tears down the connection.
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) send(t FrameType, payload []byte) error {
	if err := WriteFrame(c.w, t, payload); err != nil {
		return err
	}
	return c.w.Flush()
}
