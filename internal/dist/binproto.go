package dist

import (
	"encoding/binary"

	"paw/internal/binfmt"
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

// appendIDs appends a partition-ID list: uint32 count, then one int64 each.
func appendIDs(buf []byte, ids []layout.ID) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ids)))
	for _, id := range ids {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(id)))
	}
	return buf
}

// readIDs reads a list appended by appendIDs.
func readIDs(r *binfmt.Reader) []layout.ID {
	n := r.Count(uint64(r.U32()), 8)
	if n == 0 {
		return nil
	}
	out := make([]layout.ID, n)
	for i := range out {
		out[i] = layout.ID(r.I64())
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
		buf = binfmt.AppendString32(buf, sp.Name)
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

// readSpans decodes a trace-span list appended by appendSpans. Each span
// costs at least 26 bytes and each attr 9, which bounds both counts before
// anything is allocated for them.
func readSpans(r *binfmt.Reader) []trace.Span {
	n := r.Count(uint64(r.U32()), 26)
	if n == 0 {
		return nil
	}
	out := make([]trace.Span, n)
	for i := range out {
		sp := &out[i]
		sp.ID = r.U32()
		sp.Parent = r.U32()
		sp.Name = r.String32()
		sp.Start = r.I64()
		sp.Dur = r.I64()
		if na := r.Count(uint64(r.U16()), 9); na > 0 {
			sp.Attrs = make([]trace.Attr, na)
			for j := range sp.Attrs {
				sp.Attrs[j].K = trace.Key(r.U8())
				sp.Attrs[j].V = r.I64()
			}
		}
	}
	if r.Err() != nil {
		return nil
	}
	return out
}

// AppendWire encodes the request for the frame protocol.
func (q *ScanRequest) AppendWire(buf []byte) []byte {
	buf = binfmt.AppendBox(buf, q.Query)
	buf = appendIDs(buf, q.IDs)
	buf = binary.LittleEndian.AppendUint64(buf, q.Seq)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(q.Deadline))
	buf = binary.LittleEndian.AppendUint64(buf, q.Epoch)
	buf = binary.LittleEndian.AppendUint64(buf, q.TraceID)
	return buf
}

// UnmarshalWire decodes an encoded ScanRequest.
func (q *ScanRequest) UnmarshalWire(data []byte) error {
	r := binfmt.NewReader("dist", data)
	q.Query = r.Box()
	q.IDs = readIDs(r)
	q.Seq = r.U64()
	q.Deadline = r.I64()
	q.Epoch = r.U64()
	q.TraceID = r.U64()
	return r.Err()
}

// AppendWire encodes the admin request for the frame protocol.
func (q *AdminRequest) AppendWire(buf []byte) []byte {
	buf = append(buf, byte(q.Op))
	buf = binary.LittleEndian.AppendUint64(buf, q.Epoch)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(q.ID)))
	buf = binary.LittleEndian.AppendUint64(buf, q.ReuseEpoch)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(q.ReuseID)))
	buf = binfmt.AppendBytes32(buf, q.Payload)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(q.Rows))
	buf = binary.LittleEndian.AppendUint64(buf, q.Seq)
	return buf
}

// UnmarshalWire decodes an encoded AdminRequest.
func (q *AdminRequest) UnmarshalWire(data []byte) error {
	r := binfmt.NewReader("dist", data)
	q.Op = int(r.U8())
	q.Epoch = r.U64()
	q.ID = layout.ID(r.I64())
	q.ReuseEpoch = r.U64()
	q.ReuseID = layout.ID(r.I64())
	q.Payload = r.Bytes32()
	q.Rows = r.I64()
	q.Seq = r.U64()
	return r.Err()
}

// AppendWire encodes the admin response for the frame protocol.
func (s *AdminResponse) AppendWire(buf []byte) []byte {
	buf = binfmt.AppendString32(buf, s.Err)
	buf = binfmt.AppendBytes32(buf, s.Payload)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Rows))
	return buf
}

// UnmarshalWire decodes an encoded AdminResponse.
func (s *AdminResponse) UnmarshalWire(data []byte) error {
	r := binfmt.NewReader("dist", data)
	s.Err = r.String32()
	s.Payload = r.Bytes32()
	s.Rows = r.I64()
	return r.Err()
}

// AppendWire encodes the membership request for the frame protocol.
func (q *MemberRequest) AppendWire(buf []byte) []byte {
	buf = append(buf, byte(q.Op))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(q.Index)))
	buf = binfmt.AppendString32(buf, q.Addr)
	buf = binary.LittleEndian.AppendUint64(buf, q.Sum)
	return buf
}

// UnmarshalWire decodes an encoded MemberRequest.
func (q *MemberRequest) UnmarshalWire(data []byte) error {
	r := binfmt.NewReader("dist", data)
	q.Op = int(r.U8())
	q.Index = int(r.I64())
	q.Addr = r.String32()
	q.Sum = r.U64()
	return r.Err()
}

// AppendWire encodes the membership response for the frame protocol.
func (s *MemberResponse) AppendWire(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(s.Index)))
	buf = binary.LittleEndian.AppendUint64(buf, s.Epoch)
	buf = binary.LittleEndian.AppendUint64(buf, s.Version)
	return binfmt.AppendString32(buf, s.Err)
}

// UnmarshalWire decodes an encoded MemberResponse.
func (s *MemberResponse) UnmarshalWire(data []byte) error {
	r := binfmt.NewReader("dist", data)
	s.Index = int(r.I64())
	s.Epoch = r.U64()
	s.Version = r.U64()
	s.Err = r.String32()
	return r.Err()
}

// AppendWire encodes the response for the frame protocol.
func (s *ScanResponse) AppendWire(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(s.Rows)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.BytesRead))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.BytesSkipped))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(s.GroupsRead)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(s.GroupsSkipped)))
	buf = binfmt.AppendString32(buf, s.Err)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.FailedPartition))
	buf = appendSpans(buf, s.Spans)
	return buf
}

// UnmarshalWire decodes an encoded ScanResponse.
func (s *ScanResponse) UnmarshalWire(data []byte) error {
	r := binfmt.NewReader("dist", data)
	s.Rows = int(r.I64())
	s.BytesRead = r.I64()
	s.BytesSkipped = r.I64()
	s.GroupsRead = int(r.I64())
	s.GroupsSkipped = int(r.I64())
	s.Err = r.String32()
	s.FailedPartition = r.I64()
	s.Spans = readSpans(r)
	return r.Err()
}

// AppendWire encodes the request for the frame protocol.
func (q *QueryRequest) AppendWire(buf []byte) []byte {
	buf = binfmt.AppendString32(buf, q.SQL)
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
	r := binfmt.NewReader("dist", data)
	q.SQL = r.String32()
	q.TimeoutMillis = r.I64()
	flags := r.U8()
	q.AllowPartial = flags&1 != 0
	q.Trace = flags&2 != 0
	return r.Err()
}

// AppendWire encodes the response for the frame protocol.
func (q *QueryResponse) AppendWire(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(q.Rows)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(q.BytesScanned))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(q.BytesSkipped))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(q.PartitionsScanned)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(q.SubQueries)))
	buf = binfmt.AppendString32(buf, q.Err)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(q.ErrCode))
	var flags byte
	if q.Partial {
		flags |= 1
	}
	buf = append(buf, flags)
	buf = appendIDs(buf, q.FailedPartitions)
	buf = binary.LittleEndian.AppendUint64(buf, q.TraceID)
	buf = appendSpans(buf, q.Spans)
	return buf
}

// UnmarshalWire decodes an encoded QueryResponse.
func (q *QueryResponse) UnmarshalWire(data []byte) error {
	r := binfmt.NewReader("dist", data)
	q.Rows = int(r.I64())
	q.BytesScanned = r.I64()
	q.BytesSkipped = r.I64()
	q.PartitionsScanned = int(r.I64())
	q.SubQueries = int(r.I64())
	q.Err = r.String32()
	q.ErrCode = int(r.U32())
	q.Partial = r.U8()&1 != 0
	q.FailedPartitions = readIDs(r)
	q.TraceID = r.U64()
	q.Spans = readSpans(r)
	return r.Err()
}
