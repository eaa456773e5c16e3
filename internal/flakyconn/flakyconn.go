// Package flakyconn wraps a net.Conn with deterministic fault injection —
// chunked writes, read/write stalls, and mid-stream drops — so server and
// client tests can prove that one misbehaving peer costs one connection,
// never the process. All faults derive from a seeded RNG: the same seed
// replays the same failure, which keeps chaos tests debuggable.
package flakyconn

import (
	"math/rand"
	"net"
	"sync"
	"time"
)

// Config selects which faults to inject. The zero value injects nothing:
// the wrapper becomes a transparent pass-through.
type Config struct {
	// Seed fixes the fault schedule; 0 uses a fixed default so tests are
	// reproducible unless they opt into variety.
	Seed int64
	// ChunkMax splits each Write into underlying writes of at most this
	// many bytes, exercising every partial-read path on the peer. 0
	// disables chunking. Writes still transfer fully (unless dropped) —
	// short-write errors are the peer's bufio stack's problem, not ours.
	ChunkMax int
	// StallEvery sleeps for Stall before every Nth read or write,
	// simulating a slow or wedged peer. 0 disables stalls.
	StallEvery int
	// Stall is the per-stall delay (default 1ms when StallEvery is set).
	Stall time.Duration
	// DropAfter severs the connection once this many bytes have been
	// written through it, mid-frame if that is where the count lands —
	// the canonical "client died while the server streamed to it" fault.
	// 0 disables drops.
	DropAfter int64
}

// Conn is a net.Conn with the configured faults layered over it.
type Conn struct {
	net.Conn
	cfg Config

	mu      sync.Mutex
	rng     *rand.Rand
	ops     int
	writes  int
	written int64
	dropped bool
}

// New wraps c. The same (conn, cfg) pair always misbehaves identically.
func New(c net.Conn, cfg Config) *Conn {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	if cfg.StallEvery > 0 && cfg.Stall <= 0 {
		cfg.Stall = time.Millisecond
	}
	return &Conn{Conn: c, cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// Dropped reports whether the drop fault has fired.
func (c *Conn) Dropped() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// Writes reports how many Write calls the connection has been asked to
// serve — a server's socket writes, counted before any chunking splits
// them.
func (c *Conn) Writes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writes
}

// maybeStall sleeps if this op lands on the stall cadence. Called with
// c.mu held; sleeps outside the lock.
func (c *Conn) stallAndCount() (stall time.Duration) {
	c.ops++
	if c.cfg.StallEvery > 0 && c.ops%c.cfg.StallEvery == 0 {
		return c.cfg.Stall
	}
	return 0
}

func (c *Conn) Read(p []byte) (int, error) {
	c.mu.Lock()
	if c.dropped {
		c.mu.Unlock()
		return 0, net.ErrClosed
	}
	stall := c.stallAndCount()
	c.mu.Unlock()
	if stall > 0 {
		time.Sleep(stall)
	}
	return c.Conn.Read(p)
}

func (c *Conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	c.mu.Unlock()
	total := 0
	for len(p) > 0 {
		c.mu.Lock()
		if c.dropped {
			c.mu.Unlock()
			return total, net.ErrClosed
		}
		n := len(p)
		if c.cfg.ChunkMax > 0 && n > c.cfg.ChunkMax {
			n = 1 + c.rng.Intn(c.cfg.ChunkMax)
		}
		drop := false
		if c.cfg.DropAfter > 0 && c.written+int64(n) >= c.cfg.DropAfter {
			n = int(c.cfg.DropAfter - c.written)
			drop = true
		}
		stall := c.stallAndCount()
		c.mu.Unlock()
		if stall > 0 {
			time.Sleep(stall)
		}
		if n > 0 {
			w, err := c.Conn.Write(p[:n])
			total += w
			if err != nil {
				return total, err
			}
			p = p[n:]
		}
		if drop {
			c.mu.Lock()
			c.dropped = true
			c.written += int64(n)
			c.mu.Unlock()
			c.Conn.Close() //nolint:errcheck
			return total, net.ErrClosed
		}
		c.mu.Lock()
		c.written += int64(n)
		c.mu.Unlock()
	}
	return total, nil
}
