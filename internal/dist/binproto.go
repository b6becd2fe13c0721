package dist

import (
	"encoding/binary"
	"fmt"
	"math"

	"paw/internal/geom"
	"paw/internal/layout"
	"paw/internal/trace"
)

// Binary codecs for the wire messages carried by the serve frame protocol
// (DESIGN.md §12). The format is positional little-endian — no field tags,
// no reflection — because both ends are always the same build of this
// repository. The golden fixtures under testdata/wire pin it byte for byte.
//
// Frame type bytes. Requests and responses use distinct types so a
// mismatched reply is detected at the protocol layer, not by misdecoding.
const (
	msgScanReq byte = iota + 1
	msgScanResp
	msgQueryReq
	msgQueryResp
	msgAdminReq
	msgAdminResp
	msgMemberReq
	msgMemberResp
)

// Error codes carried in QueryResponse.ErrCode alongside Err. Code 0 with a
// non-empty Err is a generic failure; typed codes let clients react without
// string matching.
const (
	// ErrCodeNone marks a clean response.
	ErrCodeNone = 0
	// ErrCodeOverloaded marks an admission-control rejection: the master shed
	// the query because the tier is saturated and the client's fair-queue
	// slot count is exhausted. Clients map it to serve.ErrOverloaded.
	ErrCodeOverloaded = 1
)

// appendString appends a uint32-length-prefixed string.
func appendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

// appendBox appends a query box: uint16 dims then lo and hi coordinates.
func appendBox(buf []byte, b geom.Box) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(b.Lo)))
	for _, v := range b.Lo {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	for _, v := range b.Hi {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// reader is a bounds-checked little-endian cursor over one frame payload.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("dist: truncated message (offset %d of %d)", r.off, len(r.buf))
	}
}

func (r *reader) u8() byte {
	if r.err != nil || r.off+1 > len(r.buf) {
		r.fail()
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

func (r *reader) u16() uint16 {
	if r.err != nil || r.off+2 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *reader) i64() int64   { return int64(r.u64()) }
func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *reader) str() string {
	n := int(r.u32())
	if r.err != nil || n < 0 || r.off+n > len(r.buf) {
		r.fail()
		return ""
	}
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s
}

func (r *reader) box() geom.Box {
	d := int(r.u16())
	if r.err != nil || r.off+16*d > len(r.buf) {
		r.fail()
		return geom.Box{}
	}
	b := geom.Box{Lo: make(geom.Point, d), Hi: make(geom.Point, d)}
	for i := 0; i < d; i++ {
		b.Lo[i] = r.f64()
	}
	for i := 0; i < d; i++ {
		b.Hi[i] = r.f64()
	}
	return b
}

func (r *reader) ids() []layout.ID {
	n := int(r.u32())
	if r.err != nil || n < 0 || r.off+8*n > len(r.buf) {
		r.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]layout.ID, n)
	for i := range out {
		out[i] = layout.ID(r.i64())
	}
	return out
}

// appendSpans appends a trace-span list: uint32 count, then per span the
// IDs, name, clock fields and a uint16-counted attr list of (key byte,
// int64 value) pairs.
func appendSpans(buf []byte, spans []trace.Span) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(spans)))
	for i := range spans {
		sp := &spans[i]
		buf = binary.LittleEndian.AppendUint32(buf, sp.ID)
		buf = binary.LittleEndian.AppendUint32(buf, sp.Parent)
		buf = appendString(buf, sp.Name)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(sp.Start))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(sp.Dur))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(sp.Attrs)))
		for _, a := range sp.Attrs {
			buf = append(buf, byte(a.K))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(a.V))
		}
	}
	return buf
}

// spans decodes a trace-span list appended by appendSpans.
func (r *reader) spans() []trace.Span {
	n := int(r.u32())
	if r.err != nil || n < 0 || n > len(r.buf)-r.off {
		// Each span costs ≥ 26 bytes; the count bound rejects hostile
		// lengths before allocating.
		r.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]trace.Span, 0, n)
	for i := 0; i < n; i++ {
		var sp trace.Span
		sp.ID = r.u32()
		sp.Parent = r.u32()
		sp.Name = r.str()
		sp.Start = r.i64()
		sp.Dur = r.i64()
		na := int(r.u16())
		if r.err != nil || na*9 > len(r.buf)-r.off {
			r.fail()
			return nil
		}
		if na > 0 {
			sp.Attrs = make([]trace.Attr, na)
			for j := range sp.Attrs {
				sp.Attrs[j].K = trace.Key(r.u8())
				sp.Attrs[j].V = r.i64()
			}
		}
		out = append(out, sp)
	}
	if r.err != nil {
		return nil
	}
	return out
}

// AppendWire encodes the request for the frame protocol.
func (q *ScanRequest) AppendWire(buf []byte) []byte {
	buf = appendBox(buf, q.Query)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(q.IDs)))
	for _, id := range q.IDs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(id)))
	}
	buf = binary.LittleEndian.AppendUint64(buf, q.Seq)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(q.Deadline))
	buf = binary.LittleEndian.AppendUint64(buf, q.Epoch)
	buf = binary.LittleEndian.AppendUint64(buf, q.TraceID)
	return buf
}

// UnmarshalWire decodes an encoded ScanRequest.
func (q *ScanRequest) UnmarshalWire(data []byte) error {
	r := reader{buf: data}
	q.Query = r.box()
	q.IDs = r.ids()
	q.Seq = r.u64()
	q.Deadline = r.i64()
	q.Epoch = r.u64()
	q.TraceID = r.u64()
	return r.err
}

// AppendWire encodes the admin request for the frame protocol.
func (q *AdminRequest) AppendWire(buf []byte) []byte {
	buf = append(buf, byte(q.Op))
	buf = binary.LittleEndian.AppendUint64(buf, q.Epoch)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(q.ID)))
	buf = binary.LittleEndian.AppendUint64(buf, q.ReuseEpoch)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(q.ReuseID)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(q.Payload)))
	buf = append(buf, q.Payload...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(q.Rows))
	buf = binary.LittleEndian.AppendUint64(buf, q.Seq)
	return buf
}

// UnmarshalWire decodes an encoded AdminRequest.
func (q *AdminRequest) UnmarshalWire(data []byte) error {
	r := reader{buf: data}
	q.Op = int(r.u8())
	q.Epoch = r.u64()
	q.ID = layout.ID(r.i64())
	q.ReuseEpoch = r.u64()
	q.ReuseID = layout.ID(r.i64())
	n := int(r.u32())
	if r.err != nil || n < 0 || r.off+n > len(r.buf) {
		r.fail()
		return r.err
	}
	q.Payload = append([]byte(nil), r.buf[r.off:r.off+n]...)
	r.off += n
	q.Rows = r.i64()
	q.Seq = r.u64()
	return r.err
}

// AppendWire encodes the admin response for the frame protocol.
func (s *AdminResponse) AppendWire(buf []byte) []byte {
	buf = appendString(buf, s.Err)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.Payload)))
	buf = append(buf, s.Payload...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Rows))
	return buf
}

// UnmarshalWire decodes an encoded AdminResponse.
func (s *AdminResponse) UnmarshalWire(data []byte) error {
	r := reader{buf: data}
	s.Err = r.str()
	n := int(r.u32())
	if r.err != nil || n < 0 || r.off+n > len(r.buf) {
		r.fail()
		return r.err
	}
	s.Payload = nil
	if n > 0 {
		s.Payload = append([]byte(nil), r.buf[r.off:r.off+n]...)
	}
	r.off += n
	s.Rows = r.i64()
	return r.err
}

// AppendWire encodes the membership request for the frame protocol.
func (q *MemberRequest) AppendWire(buf []byte) []byte {
	buf = append(buf, byte(q.Op))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(q.Index)))
	buf = appendString(buf, q.Addr)
	buf = binary.LittleEndian.AppendUint64(buf, q.Sum)
	return buf
}

// UnmarshalWire decodes an encoded MemberRequest.
func (q *MemberRequest) UnmarshalWire(data []byte) error {
	r := reader{buf: data}
	q.Op = int(r.u8())
	q.Index = int(r.i64())
	q.Addr = r.str()
	q.Sum = r.u64()
	return r.err
}

// AppendWire encodes the membership response for the frame protocol.
func (s *MemberResponse) AppendWire(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(s.Index)))
	buf = binary.LittleEndian.AppendUint64(buf, s.Epoch)
	buf = binary.LittleEndian.AppendUint64(buf, s.Version)
	return appendString(buf, s.Err)
}

// UnmarshalWire decodes an encoded MemberResponse.
func (s *MemberResponse) UnmarshalWire(data []byte) error {
	r := reader{buf: data}
	s.Index = int(r.i64())
	s.Epoch = r.u64()
	s.Version = r.u64()
	s.Err = r.str()
	return r.err
}

// AppendWire encodes the response for the frame protocol.
func (s *ScanResponse) AppendWire(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(s.Rows)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.BytesRead))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.BytesSkipped))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(s.GroupsRead)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(s.GroupsSkipped)))
	buf = appendString(buf, s.Err)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.FailedPartition))
	buf = appendSpans(buf, s.Spans)
	return buf
}

// UnmarshalWire decodes an encoded ScanResponse.
func (s *ScanResponse) UnmarshalWire(data []byte) error {
	r := reader{buf: data}
	s.Rows = int(r.i64())
	s.BytesRead = r.i64()
	s.BytesSkipped = r.i64()
	s.GroupsRead = int(r.i64())
	s.GroupsSkipped = int(r.i64())
	s.Err = r.str()
	s.FailedPartition = r.i64()
	s.Spans = r.spans()
	return r.err
}

// AppendWire encodes the request for the frame protocol.
func (q *QueryRequest) AppendWire(buf []byte) []byte {
	buf = appendString(buf, q.SQL)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(q.TimeoutMillis))
	var flags byte
	if q.AllowPartial {
		flags |= 1
	}
	if q.Trace {
		flags |= 2
	}
	return append(buf, flags)
}

// UnmarshalWire decodes an encoded QueryRequest.
func (q *QueryRequest) UnmarshalWire(data []byte) error {
	r := reader{buf: data}
	q.SQL = r.str()
	q.TimeoutMillis = r.i64()
	flags := r.u8()
	q.AllowPartial = flags&1 != 0
	q.Trace = flags&2 != 0
	return r.err
}

// AppendWire encodes the response for the frame protocol.
func (q *QueryResponse) AppendWire(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(q.Rows)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(q.BytesScanned))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(q.BytesSkipped))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(q.PartitionsScanned)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(q.SubQueries)))
	buf = appendString(buf, q.Err)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(q.ErrCode))
	var flags byte
	if q.Partial {
		flags |= 1
	}
	buf = append(buf, flags)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(q.FailedPartitions)))
	for _, id := range q.FailedPartitions {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(id)))
	}
	buf = binary.LittleEndian.AppendUint64(buf, q.TraceID)
	buf = appendSpans(buf, q.Spans)
	return buf
}

// UnmarshalWire decodes an encoded QueryResponse.
func (q *QueryResponse) UnmarshalWire(data []byte) error {
	r := reader{buf: data}
	q.Rows = int(r.i64())
	q.BytesScanned = r.i64()
	q.BytesSkipped = r.i64()
	q.PartitionsScanned = int(r.i64())
	q.SubQueries = int(r.i64())
	q.Err = r.str()
	q.ErrCode = int(r.u32())
	q.Partial = r.u8()&1 != 0
	q.FailedPartitions = r.ids()
	q.TraceID = r.u64()
	q.Spans = r.spans()
	return r.err
}
