package wire

import (
	"encoding/binary"
	"math"
	"time"
)

// ErrCode classifies a server error for machine handling. The retryable
// codes all describe statements the server refused *before executing them*
// (admission queue full, memory budget pressure, queue-deadline expiry, a
// declared read-only mode for writes), so resubmitting after a backoff is
// safe for every statement kind, including non-idempotent writes.
type ErrCode uint8

const (
	// ErrGeneric is any error without a finer classification (query
	// errors, txn conflicts, internal failures). Not blindly retryable.
	ErrGeneric ErrCode = iota
	// ErrOverloaded: the statement's admission class had no free slots.
	// Never executed; retry after the hint.
	ErrOverloaded
	// ErrBudget: a memory budget refused the query's working set. The
	// query was killed cleanly; retry after the hint (pressure is
	// transient) or rewrite with a LIMIT.
	ErrBudget
	// ErrQueueTimeout: the statement waited out its deadline in the
	// admission queue and was never executed. Retry after the hint.
	ErrQueueTimeout
	// ErrReadOnly: the engine is in a declared read-only mode (disk
	// pressure or a durability failure); writes are refused before
	// execution. Reads still work. Retryable once the operator clears
	// the condition — the hint is a polling interval, not a promise.
	ErrReadOnly
	// ErrShardUnavailable: a cluster router could not reach a shard the
	// statement needs (dial failure, mid-stream death, replica lag). The
	// statement either never executed or its partial results were
	// discarded — the router never forwards a truncated result — so
	// resubmitting after the hint is safe.
	ErrShardUnavailable
)

// String names the code for logs and rendered errors.
func (c ErrCode) String() string {
	switch c {
	case ErrGeneric:
		return "error"
	case ErrOverloaded:
		return "overloaded"
	case ErrBudget:
		return "budget-exceeded"
	case ErrQueueTimeout:
		return "queue-timeout"
	case ErrReadOnly:
		return "read-only"
	case ErrShardUnavailable:
		return "shard-unavailable"
	}
	return "error"
}

// errFrameMagic is the first payload byte of a structured Error frame
// (resultVersion 7). Pre-7 servers sent the bare message text; no
// statement error begins with byte 0x01 (messages are human-readable
// strings), so the magic byte cleanly discriminates the two layouts and
// a v7 client still decodes a v6 server's plain-text errors.
const errFrameMagic = 0x01

// EncodeError serializes a structured Error frame payload:
//
//	magic(0x01) code(1) retryAfterMillis(uvarint) message(bytes to end)
func EncodeError(code ErrCode, retryAfter time.Duration, msg string) []byte {
	buf := make([]byte, 0, len(msg)+12)
	buf = append(buf, errFrameMagic, byte(code))
	millis := retryAfter.Milliseconds()
	if millis < 0 {
		millis = 0
	}
	buf = binary.AppendUvarint(buf, uint64(millis))
	return append(buf, msg...)
}

// DecodeError parses an Error frame payload into a *ServerError. Payloads
// without the magic byte — pre-7 servers, or any peer that sends bare text —
// decode as a plain ErrGeneric with the whole payload as the message, so
// this function never fails.
func DecodeError(payload []byte) *ServerError {
	if len(payload) < 2 || payload[0] != errFrameMagic {
		return &ServerError{Msg: string(payload)}
	}
	code := ErrCode(payload[1])
	if code > ErrShardUnavailable {
		code = ErrGeneric
	}
	millis, n := binary.Uvarint(payload[2:])
	if n <= 0 {
		return &ServerError{Msg: string(payload)}
	}
	// A hint past what a Duration holds would wrap negative.
	millis = min(millis, uint64(math.MaxInt64/int64(time.Millisecond)))
	return &ServerError{
		Msg:        string(payload[2+n:]),
		Code:       code,
		RetryAfter: time.Duration(millis) * time.Millisecond,
	}
}
