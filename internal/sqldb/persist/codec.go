// Package persist is the durability subsystem under sqldb: a versioned
// binary snapshot codec, an append-only write-ahead log of mutations, and a
// Store tying the two into crash-safe open/checkpoint/close lifecycle for a
// whole database. The on-disk unit is a directory holding one snapshot file
// (the state as of the last checkpoint) plus one WAL file (every mutation
// since). Opening the directory loads the snapshot and replays the WAL,
// tolerating a torn final record from a crash mid-append.
package persist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"justintime/internal/fault"
	"justintime/internal/sqldb"
)

// maxRecord bounds a single framed record; a length prefix past it is
// treated as corruption rather than an allocation request.
const maxRecord = 1 << 30

// errTorn marks a record that ends early or fails its checksum — the shape a
// crash mid-append leaves behind. The WAL reader treats it as end-of-log;
// the snapshot reader (whose file is written atomically) treats it as real
// corruption.
var errTorn = errors.New("persist: torn record")

// ---- value / primitive encoding ----------------------------------------

// enc is an append-only little-endian buffer encoder.
type enc struct{ buf []byte }

func (e *enc) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *enc) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *enc) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *enc) bytes(b []byte) {
	e.u32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// Value encoding is shared with the pager's slotted pages and lives in
// sqldb (AppendValue/DecodeValue); tags are pinned there so the file format
// survives reorderings of the in-memory enum.
func (e *enc) value(v sqldb.Value) {
	e.buf = sqldb.AppendValue(e.buf, v)
}

func (e *enc) rows(rows [][]sqldb.Value) {
	e.u32(uint32(len(rows)))
	for _, row := range rows {
		e.u32(uint32(len(row)))
		for _, v := range row {
			e.value(v)
		}
	}
}

func (e *enc) cols(cols []sqldb.Column) {
	e.u32(uint32(len(cols)))
	for _, c := range cols {
		e.str(c.Name)
		e.u8(uint8(c.Type))
	}
}

// dec is the matching decoder; the first malformed read latches err and
// turns every later read into a no-op zero value.
type dec struct {
	buf []byte
	off int
	err error
}

func (d *dec) fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("persist: malformed record: %s at offset %d", msg, d.off)
	}
}

func (d *dec) u8() uint8 {
	if d.err != nil || d.off+1 > len(d.buf) {
		d.fail("u8")
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *dec) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.buf) {
		d.fail("u32")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

func (d *dec) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.buf) {
		d.fail("u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *dec) str() string {
	n := int(d.u32())
	if d.err != nil || n < 0 || d.off+n > len(d.buf) {
		d.fail("string")
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

func (d *dec) bytes() []byte {
	n := int(d.u32())
	if d.err != nil || n < 0 || d.off+n > len(d.buf) {
		d.fail("bytes")
		return nil
	}
	b := make([]byte, n)
	copy(b, d.buf[d.off:d.off+n])
	d.off += n
	return b
}

func (d *dec) value() sqldb.Value {
	if d.err != nil {
		return sqldb.Null()
	}
	v, n, err := sqldb.DecodeValue(d.buf[d.off:])
	if err != nil {
		d.fail(err.Error())
		return sqldb.Null()
	}
	d.off += n
	return v
}

func (d *dec) rows() [][]sqldb.Value {
	n := int(d.u32())
	if d.err != nil || n > maxRecord {
		d.fail("row count")
		return nil
	}
	rows := make([][]sqldb.Value, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		w := int(d.u32())
		if d.err != nil || w > maxRecord {
			d.fail("row width")
			return nil
		}
		row := make([]sqldb.Value, 0, w)
		for j := 0; j < w && d.err == nil; j++ {
			row = append(row, d.value())
		}
		rows = append(rows, row)
	}
	return rows
}

func (d *dec) cols() []sqldb.Column {
	n := int(d.u32())
	if d.err != nil || n > maxRecord {
		d.fail("column count")
		return nil
	}
	cols := make([]sqldb.Column, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		name := d.str()
		typ := sqldb.Type(d.u8())
		cols = append(cols, sqldb.Column{Name: name, Type: typ})
	}
	return cols
}

// ---- record framing ------------------------------------------------------

// writeFrame frames a payload as length(u32) | crc32(u32, over payload) |
// payload and writes it to w.
func writeFrame(w io.Writer, payload []byte) (int, error) {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	if n, err := w.Write(hdr[:]); err != nil {
		return n, err
	}
	n, err := w.Write(payload)
	return 8 + n, err
}

// frameBytes returns the exact on-disk framing of payload as one slice —
// what writeFrame would emit. The WAL writes it with one call and hands the
// same bytes to the shipping hook (WAL shipping addresses records by file
// offset).
func frameBytes(payload []byte) []byte {
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[8:], payload)
	return frame
}

// minReadBuffer is the smallest buffer fileReader gives a file.
const minReadBuffer = 4 << 10

// fileReader returns a buffered reader over f sized to the file, so reading
// a log of a few KiB does not allocate a buffer of a MiB: the file's size,
// at least minReadBuffer and at most limit bytes (limit when Stat fails).
func fileReader(f fault.File, limit int) *bufio.Reader {
	size := limit
	if fi, err := f.Stat(); err == nil && fi.Size() < int64(limit) {
		size = int(fi.Size())
		if size < minReadBuffer {
			size = minReadBuffer
		}
	}
	return bufio.NewReaderSize(f, size)
}

// readFrame reads one framed payload. A clean end of file (EOF before the
// first header byte) returns io.EOF; a record cut short or failing its
// checksum returns errTorn.
func readFrame(r *bufio.Reader) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, io.EOF
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, err // a failing device, not a torn tail
		}
		return nil, errTorn
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	want := binary.LittleEndian.Uint32(hdr[4:8])
	if length > maxRecord {
		return nil, errTorn
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, err
		}
		return nil, errTorn
	}
	if crc32.ChecksumIEEE(payload) != want {
		return nil, errTorn
	}
	return payload, nil
}
