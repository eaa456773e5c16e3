// Package wire is the client/server protocol of the probabilistic database:
// a small length-prefixed binary framing with Query, RowBatch, Result,
// Error and Ping/Pong frames. Every answer to a Query has one shape,
//
//	RowBatch* Result  |  RowBatch* Error
//
// (see stream.go). RowBatch frames carry rendered-free structured rows —
// certain values in a compact tag encoding and pdfs in internal/dist's wire
// codec (the same representation economics the storage layer uses: a
// symbolic Gaussian crosses the network in 17 bytes); the Result frame
// carries the message, affected count and per-query execution stats.
//
// Framing:
//
//	| u32 big-endian n | u8 type | n−1 bytes payload |
//
// where n counts the type byte plus the payload, 1 ≤ n ≤ 1+MaxPayload.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// MaxPayload bounds a frame's payload so a corrupted or hostile length
// prefix cannot trigger an enormous allocation.
const MaxPayload = 16 << 20

// FrameType discriminates the protocol's frames.
type FrameType byte

// The protocol's frame types. Clients send Query and Ping; servers answer
// a Query with zero or more RowBatch frames (a SELECT's header and rows)
// ended by one Result or Error, and a Ping with Pong.
const (
	FrameQuery FrameType = iota + 1
	FrameResult
	FrameError
	FramePing
	FramePong
	FrameRowBatch
	// frameRetired (7) was resultVersion 8's ResultEnd. It stays unused so
	// WALFetch and WALSegment keep their values between a leader and a
	// replica of different versions.
	frameRetired
	// WAL shipping (replication): a replica sends WALFetch(fromLSN,
	// maxBytes) and the leader answers with one WALSegment carrying raw,
	// record-aligned WAL bytes starting at that LSN (see walship.go).
	FrameWALFetch
	FrameWALSegment
)

// String names the frame type.
func (t FrameType) String() string {
	switch t {
	case FrameQuery:
		return "Query"
	case FrameResult:
		return "Result"
	case FrameError:
		return "Error"
	case FramePing:
		return "Ping"
	case FramePong:
		return "Pong"
	case FrameRowBatch:
		return "RowBatch"
	case FrameWALFetch:
		return "WALFetch"
	case FrameWALSegment:
		return "WALSegment"
	}
	return fmt.Sprintf("FrameType(%d)", byte(t))
}

func validFrameType(t FrameType) bool {
	return t >= FrameQuery && t <= FrameWALSegment && t != frameRetired
}

// WriteFrame writes one frame.
func WriteFrame(w io.Writer, t FrameType, payload []byte) error {
	if len(payload) > MaxPayload {
		return fmt.Errorf("wire: payload %d exceeds limit %d", len(payload), MaxPayload)
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	hdr[4] = byte(t)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// ReadFrame reads one frame. It returns the frame type and payload, or an
// error for malformed framing (bad length, unknown type, short read).
func ReadFrame(r io.Reader) (FrameType, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n < 1 || n > MaxPayload+1 {
		return 0, nil, fmt.Errorf("wire: bad frame length %d", n)
	}
	t := FrameType(hdr[4])
	if !validFrameType(t) {
		return 0, nil, fmt.Errorf("wire: unknown frame type %d", hdr[4])
	}
	payload := make([]byte, n-1)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return t, payload, nil
}
