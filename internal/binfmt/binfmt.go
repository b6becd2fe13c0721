// Package binfmt is the one positional little-endian codec behind every
// binary format of this repository: PAWL layouts, PAWD datasets, PAWQ query
// logs, PAWC partition payloads and the wire messages. Encoders append to a
// byte slice — scalars through binary.LittleEndian's Append functions, and
// through this package what the standard library lacks: length-prefixed
// strings and byte runs, boxes and the magic+version header. Decoders walk
// the whole input with a Reader.
package binfmt

import (
	"encoding/binary"
	"fmt"
	"io"
	"io/fs"
	"math"

	"paw/internal/geom"
)

// ReadAll reads in to its end for a decoder, into one allocation when in
// knows its size — a bytes.Reader or bytes.Buffer by Len, a file by Stat —
// where io.ReadAll would grow its buffer by doubling.
func ReadAll(in io.Reader) ([]byte, error) {
	size := -1
	switch v := in.(type) {
	case interface{ Len() int }:
		size = v.Len()
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := v.Stat(); err == nil && fi.Mode().IsRegular() {
			size = int(fi.Size())
		}
	}
	if size < 0 {
		return io.ReadAll(in)
	}
	buf := make([]byte, size)
	_, err := io.ReadFull(in, buf)
	return buf, err
}

// Reader is a bounds-checked little-endian cursor over one encoded input.
// Its error is sticky: after the first failure every read returns a zero
// value and Err reports that failure, so a decoder reads its fields in order
// and checks once.
type Reader struct {
	format string // the error prefix
	buf    []byte
	off    int
	err    error
}

// NewReader starts a Reader over buf; its errors read "format: ...".
func NewReader(format string, buf []byte) *Reader {
	return &Reader{format: format, buf: buf}
}

// Err is the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Failf records a failure unless one is already recorded.
func (r *Reader) Failf(msg string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%s: %s", r.format, fmt.Sprintf(msg, args...))
	}
}

// Next returns the next n bytes: a view into the input, which a decoded value
// that outlives the input must copy.
func (r *Reader) Next(n int) []byte {
	if r.err != nil || uint(n) > uint(len(r.buf)-r.off) {
		r.Failf("truncated input: %d bytes wanted at offset %d of %d", n, r.off, len(r.buf))
		return nil
	}
	r.off += n
	return r.buf[r.off-n : r.off : r.off]
}

// Count returns n, an element count just read, when n elements of at least
// size (≥ 1) bytes each fit in the bytes left; otherwise it fails and
// returns 0. A hostile count costs an error, not an allocation.
func (r *Reader) Count(n uint64, size int) int {
	if r.err == nil && n > uint64((len(r.buf)-r.off)/size) {
		r.Failf("%d elements of %d bytes overrun the input at offset %d of %d", n, size, r.off, len(r.buf))
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

func (r *Reader) U8() uint8 {
	if b := r.Next(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *Reader) U16() uint16 {
	if b := r.Next(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

func (r *Reader) U32() uint32 {
	if b := r.Next(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *Reader) U64() uint64 {
	if b := r.Next(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *Reader) I64() int64   { return int64(r.U64()) }
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// String16 reads a string behind a uint16 length, String32 one behind a
// uint32 length.
func (r *Reader) String16() string { return string(r.Next(int(r.U16()))) }
func (r *Reader) String32() string { return string(r.Next(int(r.U32()))) }

// Bytes32 reads a byte run behind a uint32 length into a fresh slice, nil
// when the run is empty.
func (r *Reader) Bytes32() []byte {
	return append([]byte(nil), r.Next(int(r.U32()))...)
}

// Box reads a box written by AppendBox.
func (r *Reader) Box() geom.Box {
	return r.Corners(int(r.U16()))
}

// Corners reads a dims-dimensional box written by AppendCorners.
func (r *Reader) Corners(dims int) geom.Box {
	if r.Count(uint64(dims), 16); r.err != nil {
		return geom.Box{}
	}
	b := geom.Box{Lo: make(geom.Point, dims), Hi: make(geom.Point, dims)}
	for i := range b.Lo {
		b.Lo[i] = r.F64()
	}
	for i := range b.Hi {
		b.Hi[i] = r.F64()
	}
	return b
}

// Header reads a format's magic word and version, failing unless both are
// the ones expected.
func (r *Reader) Header(magic uint32, version uint16) {
	if m := r.U32(); r.err == nil && m != magic {
		r.Failf("bad magic %#x", m)
	}
	if v := r.U16(); r.err == nil && v != version {
		r.Failf("unsupported version %d", v)
	}
}

// AppendHeader appends the magic word and version Header checks.
func AppendHeader(buf []byte, magic uint32, version uint16) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, magic)
	return binary.LittleEndian.AppendUint16(buf, version)
}

// AppendString16 appends s behind a uint16 length; the caller keeps s under
// 64 KiB.
func AppendString16(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

// AppendString32 appends s behind a uint32 length.
func AppendString32(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

// AppendBytes32 appends b behind a uint32 length.
func AppendBytes32(buf, b []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}

// AppendBox appends b as its uint16 dimensionality and then its corners.
func AppendBox(buf []byte, b geom.Box) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(b.Lo)))
	return AppendCorners(buf, b)
}

// AppendCorners appends b's corners, every lo and then every hi coordinate as
// a float64, for a format that states the dimensionality once.
func AppendCorners(buf []byte, b geom.Box) []byte {
	for _, v := range b.Lo {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	for _, v := range b.Hi {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}
