package flakyconn

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"
)

// pipePair returns a wrapped client end and the raw server end of an
// in-memory duplex pipe, with a goroutine echoing everything it reads into
// buf until the pipe closes.
func pipePair(t *testing.T, cfg Config) (*Conn, net.Conn) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	return New(a, cfg), b
}

func TestPassThrough(t *testing.T) {
	c, peer := pipePair(t, Config{})
	msg := []byte("hello probabilistic world")
	go func() {
		if _, err := c.Write(msg); err != nil {
			t.Errorf("write: %v", err)
		}
	}()
	got := make([]byte, len(msg))
	if _, err := readFull(peer, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q want %q", got, msg)
	}
}

func TestChunkedWriteDeliversEverything(t *testing.T) {
	c, peer := pipePair(t, Config{ChunkMax: 3, Seed: 42})
	msg := bytes.Repeat([]byte("abcdefg"), 40)
	errc := make(chan error, 1)
	go func() {
		n, err := c.Write(msg)
		if err == nil && n != len(msg) {
			t.Errorf("short write: %d of %d", n, len(msg))
		}
		errc <- err
	}()
	got := make([]byte, len(msg))
	if _, err := readFull(peer, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("write: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("chunked write corrupted the stream")
	}
}

func TestDropAfterSeversMidStream(t *testing.T) {
	c, peer := pipePair(t, Config{DropAfter: 10})
	go func() {
		buf := make([]byte, 64)
		for {
			if _, err := peer.Read(buf); err != nil {
				return
			}
		}
	}()
	n, err := c.Write(bytes.Repeat([]byte("x"), 64))
	if !errors.Is(err, net.ErrClosed) {
		t.Fatalf("want net.ErrClosed, got n=%d err=%v", n, err)
	}
	if n != 10 {
		t.Fatalf("want exactly 10 bytes through before the drop, got %d", n)
	}
	if !c.Dropped() {
		t.Fatal("Dropped() should report true after the fault fires")
	}
	if _, err := c.Write([]byte("more")); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("writes after drop must fail closed, got %v", err)
	}
	if _, err := c.Read(make([]byte, 1)); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("reads after drop must fail closed, got %v", err)
	}
}

func TestStallDelays(t *testing.T) {
	c, peer := pipePair(t, Config{StallEvery: 1, Stall: 20 * time.Millisecond})
	go func() {
		buf := make([]byte, 8)
		for {
			if _, err := peer.Read(buf); err != nil {
				return
			}
		}
	}()
	start := time.Now()
	if _, err := c.Write([]byte("hi")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("stall not applied: write returned in %v", d)
	}
}

func readFull(c net.Conn, p []byte) (int, error) {
	n := 0
	for n < len(p) {
		m, err := c.Read(p[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// TestWritesCountsCalls: Writes counts the Write calls asked of the
// connection, not the chunks the fault schedule splits them into.
func TestWritesCountsCalls(t *testing.T) {
	c, peer := pipePair(t, Config{ChunkMax: 3, Seed: 7})
	msg := bytes.Repeat([]byte("xy"), 20)
	go func() {
		for i := 0; i < 2; i++ {
			if _, err := c.Write(msg); err != nil {
				t.Errorf("write: %v", err)
			}
		}
	}()
	got := make([]byte, 2*len(msg))
	if _, err := readFull(peer, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	if n := c.Writes(); n != 2 {
		t.Fatalf("Writes() = %d after two Write calls", n)
	}
}
