package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// This file is the one binary codec for certain values and column
// descriptors. The wire protocol's result rows and the checkpoint
// snapshots both embed it, so a value has one byte form in flight and at
// rest. Each value is a tag byte followed by its body:
//
//	null   tag 0
//	int    tag 1, zig-zag varint
//	float  tag 2, IEEE-754 bits as u64 little-endian
//	text   tag 3, uvarint length, bytes
//	bool   tag 4, one byte (1 = true)
//
// A column descriptor is its name (uvarint length, bytes), its AttrType as
// one byte and an uncertain flag byte; a column list is prefixed by its
// uvarint count.

// Value tags.
const (
	valNull byte = iota
	valInt
	valFloat
	valString
	valBool
)

// errTruncated reports a value or descriptor cut short by the buffer's end.
var errTruncated = errors.New("unexpected end of buffer")

// AppendValue appends v's encoding to buf.
func AppendValue(buf []byte, v Value) []byte {
	switch v.Kind {
	case IntValue:
		buf = append(buf, valInt)
		return binary.AppendVarint(buf, v.I)
	case FloatValue:
		buf = append(buf, valFloat)
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.F))
	case StringValue:
		buf = append(buf, valString)
		return AppendString(buf, v.S)
	case BoolValue:
		if v.B {
			return append(buf, valBool, 1)
		}
		return append(buf, valBool, 0)
	}
	return append(buf, valNull)
}

// DecodeValue reads the value encoded at the head of b and returns it with
// the number of bytes it spans. With keep false it only checks the value:
// a text value is then not copied out of b and the returned value is NULL.
func DecodeValue(b []byte, keep bool) (Value, int, error) {
	if len(b) == 0 {
		return Null, 0, errTruncated
	}
	switch b[0] {
	case valNull:
		return Null, 1, nil
	case valInt:
		v, n := binary.Varint(b[1:])
		if n <= 0 {
			return Null, 0, errors.New("bad int")
		}
		return Int(v), 1 + n, nil
	case valFloat:
		if len(b) < 9 {
			return Null, 0, errTruncated
		}
		return Float(math.Float64frombits(binary.LittleEndian.Uint64(b[1:]))), 9, nil
	case valString:
		s, n, err := decodeBytes(b[1:])
		if err != nil || !keep {
			return Null, 1 + n, err
		}
		return Str(string(s)), 1 + n, nil
	case valBool:
		if len(b) < 2 {
			return Null, 0, errTruncated
		}
		return Bool(b[1] == 1), 2, nil
	}
	return Null, 0, fmt.Errorf("unknown value tag %d", b[0])
}

// AppendString appends s as a uvarint length followed by its bytes.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// DecodeString reads a string written by AppendString and returns it with
// the number of bytes it spans.
func DecodeString(b []byte) (string, int, error) {
	s, n, err := decodeBytes(b)
	return string(s), n, err
}

// decodeBytes reads a length-prefixed string, aliasing b.
func decodeBytes(b []byte) ([]byte, int, error) {
	l, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, 0, errors.New("bad string length")
	}
	if l > uint64(len(b)-n) {
		return nil, 0, fmt.Errorf("string length %d exceeds buffer", l)
	}
	return b[n : n+int(l)], n + int(l), nil
}

// AppendColumns appends a count-prefixed column list to buf.
func AppendColumns(buf []byte, cols []Column) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(cols)))
	for _, c := range cols {
		buf = AppendString(buf, c.Name)
		buf = append(buf, byte(c.Type))
		if c.Uncertain {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	return buf
}

// DecodeColumns reads a column list written by AppendColumns, refusing a
// count above limit, and returns it with the number of bytes it spans.
func DecodeColumns(b []byte, limit int) ([]Column, int, error) {
	ncols, off := binary.Uvarint(b)
	if off <= 0 {
		return nil, 0, errors.New("bad column count")
	}
	if ncols > uint64(limit) {
		return nil, 0, fmt.Errorf("column count %d exceeds limit %d", ncols, limit)
	}
	cols := make([]Column, ncols)
	for i := range cols {
		name, n, err := DecodeString(b[off:])
		if err != nil {
			return nil, 0, err
		}
		off += n
		if len(b)-off < 2 {
			return nil, 0, errTruncated
		}
		cols[i] = Column{Name: name, Type: AttrType(b[off]), Uncertain: b[off+1] == 1}
		off += 2
	}
	return cols, off, nil
}
