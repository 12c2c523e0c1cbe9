package sqldb

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Wire tags for encoded Values. These are the on-disk representation shared
// by the persist snapshot/WAL codec and the pager's slotted pages; they are
// pinned independently of the Type enum so reordering Type can never silently
// corrupt stored data.
const (
	wireTagNull  byte = 0
	wireTagInt   byte = 1
	wireTagFloat byte = 2
	wireTagText  byte = 3
	wireTagBool  byte = 4
)

// AppendValue appends the binary encoding of v to buf and returns the
// extended slice: a one-byte tag followed by a little-endian payload (int64
// bits, float64 bits, u32-length-prefixed string bytes, or a single 0/1
// byte). NULL is the bare tag.
func AppendValue(buf []byte, v Value) []byte {
	switch v.typ {
	case IntType:
		buf = append(buf, wireTagInt)
		return binary.LittleEndian.AppendUint64(buf, v.n)
	case FloatType:
		buf = append(buf, wireTagFloat)
		return binary.LittleEndian.AppendUint64(buf, v.n)
	case TextType:
		buf = append(buf, wireTagText)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v.s)))
		return append(buf, v.s...)
	case BoolType:
		buf = append(buf, wireTagBool)
		return append(buf, byte(v.n))
	default:
		return append(buf, wireTagNull)
	}
}

// DecodeValue decodes one value from the front of b, returning the value and
// the number of bytes consumed. String payloads are copied, so the returned
// Value never aliases b.
func DecodeValue(b []byte) (Value, int, error) {
	if len(b) == 0 {
		return Value{}, 0, fmt.Errorf("sqldb: truncated value")
	}
	switch tag := b[0]; tag {
	case wireTagNull:
		return Null(), 1, nil
	case wireTagInt:
		if len(b) < 9 {
			return Value{}, 0, fmt.Errorf("sqldb: truncated INT value")
		}
		return Int(int64(binary.LittleEndian.Uint64(b[1:]))), 9, nil
	case wireTagFloat:
		if len(b) < 9 {
			return Value{}, 0, fmt.Errorf("sqldb: truncated FLOAT value")
		}
		return Float(math.Float64frombits(binary.LittleEndian.Uint64(b[1:]))), 9, nil
	case wireTagText:
		if len(b) < 5 {
			return Value{}, 0, fmt.Errorf("sqldb: truncated TEXT value")
		}
		n := int(binary.LittleEndian.Uint32(b[1:]))
		if n < 0 || len(b) < 5+n {
			return Value{}, 0, fmt.Errorf("sqldb: truncated TEXT payload")
		}
		return Text(string(b[5 : 5+n])), 5 + n, nil
	case wireTagBool:
		if len(b) < 2 {
			return Value{}, 0, fmt.Errorf("sqldb: truncated BOOL value")
		}
		return Bool(b[1] != 0), 2, nil
	default:
		return Value{}, 0, fmt.Errorf("sqldb: unknown value tag %d", tag)
	}
}

// AppendRowRecord appends the encoding of one row — a u32 width followed by
// that many encoded values — to buf. This is the record format stored in
// slotted pages and, per element, inside persist's row blocks.
func AppendRowRecord(buf []byte, row []Value) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(row)))
	for _, v := range row {
		buf = AppendValue(buf, v)
	}
	return buf
}

// DecodeRowRecord decodes a complete row record produced by AppendRowRecord.
// Trailing bytes are an error: page slots hold exactly one record.
func DecodeRowRecord(b []byte) ([]Value, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("sqldb: truncated row record")
	}
	width := int(binary.LittleEndian.Uint32(b))
	if width < 0 || width > 1<<20 {
		return nil, fmt.Errorf("sqldb: implausible row width %d", width)
	}
	off := 4
	row := make([]Value, 0, width)
	for i := 0; i < width; i++ {
		v, n, err := DecodeValue(b[off:])
		if err != nil {
			return nil, err
		}
		off += n
		row = append(row, v)
	}
	if off != len(b) {
		return nil, fmt.Errorf("sqldb: %d trailing byte(s) after row record", len(b)-off)
	}
	return row, nil
}
