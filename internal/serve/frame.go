// Package serve is the high-throughput serving substrate under the
// distributed path (DESIGN.md §12): a length-prefixed binary wire protocol
// with preallocated frame buffers, a connection multiplexer that pipelines
// many in-flight requests over one TCP connection with sequence-tagged
// responses, a frame server that executes requests concurrently per
// connection, and the serving-side building blocks the master composes — a
// bounded LRU cache and fair admission control.
//
// The package is payload-agnostic: messages are opaque byte slices plus a
// one-byte type tag. internal/dist supplies the binary codecs for its
// request/response structs.
package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Magic is the 4-byte connection preamble a dialer (NewMux) sends before its
// first frame and ServeConn verifies before reading one: a peer speaking
// anything else is refused up front instead of being misparsed as frames.
var Magic = [4]byte{'P', 'A', 'W', '1'}

// Frame layout (all integers little-endian):
//
//	type    uint8   message kind (package-user defined)
//	seq     uint64  request sequence, echoed verbatim in the response
//	length  uint32  payload byte count
//	crc     uint32  IEEE CRC-32 over type|seq|length|payload
//	payload length bytes
//
// The CRC covers the header fields as well as the payload, so a corrupted
// length or sequence is detected instead of desynchronizing the stream.
const (
	headerLen = 1 + 8 + 4 + 4
	crcOffset = 1 + 8 + 4

	// MaxPayload bounds a frame's payload; longer lengths are treated as
	// stream corruption (the responses this protocol carries are small
	// aggregates, not row data).
	MaxPayload = 64 << 20
)

// ErrCorrupt reports a frame that failed validation: the stream's framing
// can no longer be trusted and the connection must be dropped.
var ErrCorrupt = errors.New("serve: corrupt frame")

// AppendFrame appends one encoded frame to buf and returns the extended
// slice. The caller owns buf; reusing it across calls makes framing
// allocation-free in steady state.
func AppendFrame(buf []byte, typ byte, seq uint64, payload []byte) []byte {
	off := len(buf)
	buf = append(buf, typ)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, 0) // crc placeholder
	buf = append(buf, payload...)
	crc := crc32.ChecksumIEEE(buf[off : off+crcOffset])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	binary.LittleEndian.PutUint32(buf[off+crcOffset:], crc)
	return buf
}

// ReadFrame reads one frame from r, appending the payload into payloadBuf
// (grown as needed) and returning the possibly-reallocated buffer. A
// validation failure returns ErrCorrupt (wrapped); the stream must then be
// abandoned.
func ReadFrame(r io.Reader, hdr *[headerLen]byte, payloadBuf []byte) (typ byte, seq uint64, payload []byte, err error) {
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	typ = hdr[0]
	seq = binary.LittleEndian.Uint64(hdr[1:])
	n := binary.LittleEndian.Uint32(hdr[9:])
	want := binary.LittleEndian.Uint32(hdr[crcOffset:])
	if n > MaxPayload {
		return 0, 0, nil, fmt.Errorf("%w: payload length %d", ErrCorrupt, n)
	}
	if cap(payloadBuf) < int(n) {
		payloadBuf = make([]byte, n)
	}
	payload = payloadBuf[:n]
	if _, err = io.ReadFull(r, payload); err != nil {
		return 0, 0, nil, fmt.Errorf("serve: reading %d-byte payload: %w", n, err)
	}
	crc := crc32.ChecksumIEEE(hdr[:crcOffset])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	if crc != want {
		return 0, 0, nil, fmt.Errorf("%w: checksum mismatch on seq %d", ErrCorrupt, seq)
	}
	return typ, seq, payload, nil
}
