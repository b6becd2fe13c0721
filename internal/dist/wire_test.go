package dist

import (
	"bytes"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"paw/internal/geom"
	"paw/internal/layout"
	"paw/internal/trace"
)

// Direct tests of the binary codecs (binproto.go): golden fixtures pin the
// wire format byte for byte, and the fuzz target checks the round-trip and
// hostile-input properties for every message type.

// wireCase is one message under test: the value, its encoder, and a decoder
// that reads a fresh message of the same type (returned as a case of its own,
// so a decoded message can be re-encoded).
type wireCase struct {
	name   string
	msg    any
	encode func(buf []byte) []byte
	decode func(data []byte) (wireCase, error)
}

func wireCaseOf[T any, P interface {
	*T
	AppendWire([]byte) []byte
	UnmarshalWire([]byte) error
}](name string, msg P) wireCase {
	return wireCase{
		name:   name,
		msg:    msg,
		encode: msg.AppendWire,
		decode: func(data []byte) (wireCase, error) {
			out := P(new(T))
			err := out.UnmarshalWire(data)
			return wireCaseOf(name, out), err
		},
	}
}

// wireCases lists all eight message types in frame-type order (case i travels
// as frame type i+1), every field set to a distinct non-zero value.
func wireCases() []wireCase {
	spans := []trace.Span{
		{ID: 1, Parent: 0, Name: "worker_batch", Start: 1700000000123456789, Dur: 98765,
			Attrs: []trace.Attr{{K: trace.KeyEpoch, V: 3}, {K: trace.KeyPartitions, V: 2}}},
		{ID: 2, Parent: 1, Name: "scan", Start: 1700000000123460000, Dur: 4321,
			Attrs: []trace.Attr{{K: trace.KeyRows, V: -7}}},
		{ID: 3, Parent: 1, Name: "scan"},
	}
	return []wireCase{
		wireCaseOf("scan_request", &ScanRequest{
			Query: geom.Box{Lo: geom.Point{-1.5, 0, 2.25}, Hi: geom.Point{3, math.Inf(1), 1e300}},
			IDs:   []layout.ID{0, 7, 1 << 40}, Seq: 42, Deadline: 1700000000987654321, Epoch: 9, TraceID: 0xfeedfacecafebeef,
		}),
		wireCaseOf("scan_response", &ScanResponse{
			Rows: 1234, BytesRead: 1 << 33, BytesSkipped: 77, GroupsRead: 5, GroupsSkipped: 6,
			Err: "worker does not host partition 9", FailedPartition: 9, Spans: spans,
		}),
		wireCaseOf("query_request", &QueryRequest{
			SQL: "SELECT * FROM t WHERE a >= 1 AND b <= 'é'", TimeoutMillis: 2500, AllowPartial: true, Trace: true,
		}),
		wireCaseOf("query_response", &QueryResponse{
			Rows: 99, BytesScanned: 4096, BytesSkipped: 8192, PartitionsScanned: 3, SubQueries: 2,
			Err: "dist: query shed: overloaded", ErrCode: ErrCodeOverloaded, Partial: true,
			FailedPartitions: []layout.ID{4, 11}, TraceID: 0x0123456789abcdef, Spans: spans,
		}),
		wireCaseOf("admin_request", &AdminRequest{
			Op: AdminInstall, Epoch: 5, ID: 17, ReuseEpoch: 4, ReuseID: -1,
			Payload: []byte{0, 1, 2, 0xff, 0xfe}, Rows: 321, Seq: 1 << 50,
		}),
		wireCaseOf("admin_response", &AdminResponse{
			Err: "partition 17 payload has 3 rows, expected 321", Payload: []byte("PAWC\x02"), Rows: 3,
		}),
		wireCaseOf("member_request", &MemberRequest{
			Op: MemberJoin, Index: -1, Addr: "10.0.0.7:7101", Sum: 0xdeadbeef00c0ffee,
		}),
		wireCaseOf("member_response", &MemberResponse{
			Index: 3, Epoch: 12, Version: 34, Err: "dist: membership is not enabled on this master",
		}),
	}
}

// hexDump renders data as 32-byte lines of lowercase hex, the fixture format.
func hexDump(data []byte) string {
	var sb strings.Builder
	for len(data) > 0 {
		n := min(32, len(data))
		sb.WriteString(hex.EncodeToString(data[:n]))
		sb.WriteByte('\n')
		data = data[n:]
	}
	return sb.String()
}

// TestWireGolden pins the wire format: every message type must encode to
// exactly its committed fixture under testdata/wire, and the fixture must
// decode back to the message. A deliberate format change regenerates the
// fixtures with UPDATE_GOLDEN=1 — and is then a visible diff in review.
func TestWireGolden(t *testing.T) {
	for _, c := range wireCases() {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join("testdata", "wire", c.name+".hex")
			got := c.encode(nil)
			if os.Getenv("UPDATE_GOLDEN") != "" {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(hexDump(got)), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			text, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create it)", err)
			}
			want, err := hex.DecodeString(strings.ReplaceAll(string(text), "\n", ""))
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("encoding diverged from %s:\n got: %x\nwant: %x", path, got, want)
			}
			back, err := c.decode(want)
			if err != nil {
				t.Fatalf("decoding the fixture: %v", err)
			}
			if !reflect.DeepEqual(back.msg, c.msg) {
				t.Fatalf("fixture decodes to\n %+v\nwant\n %+v", back.msg, c.msg)
			}
			// Appending must extend the caller's buffer, not restart it.
			if ext := c.encode([]byte("prefix")); !bytes.Equal(ext, append([]byte("prefix"), want...)) {
				t.Fatal("AppendWire does not append to a non-empty buffer")
			}
		})
	}
}

// TestWireTruncated: every proper prefix of a valid encoding is an error —
// the bounds-checked reader never reads past the payload or panics.
func TestWireTruncated(t *testing.T) {
	for _, c := range wireCases() {
		full := c.encode(nil)
		for n := 0; n < len(full); n++ {
			if _, err := c.decode(full[:n]); err == nil {
				t.Fatalf("%s: %d-byte prefix of a %d-byte message decoded without error", c.name, n, len(full))
			}
		}
	}
}

// hasNaN reports a NaN query coordinate: the one value a message can carry
// that is not equal to itself, so deep equality cannot be asked of it.
func hasNaN(msg any) bool {
	q, ok := msg.(*ScanRequest)
	if !ok {
		return false
	}
	for _, v := range append(q.Query.Lo.Clone(), q.Query.Hi...) {
		if math.IsNaN(v) {
			return true
		}
	}
	return false
}

// FuzzWireRoundTrip feeds arbitrary bytes to the decoder of the message type
// kind selects. The decoder must return an error or a message — never panic,
// and never build a message larger than its input (a hostile length prefix
// must be rejected before anything is allocated for it). Whatever decodes is
// then a legitimate message x, for which Unmarshal(Append(x)) must deep-equal
// x and re-encode to the same bytes.
func FuzzWireRoundTrip(f *testing.F) {
	cases := wireCases()
	for i, c := range cases {
		full := c.encode(nil)
		f.Add(byte(i), full)
		f.Add(byte(i), full[:len(full)/2])
	}
	f.Add(byte(0), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(byte(1), bytes.Repeat([]byte{0xff}, 80))
	f.Fuzz(func(t *testing.T, kind byte, data []byte) {
		c := cases[int(kind)%len(cases)]
		x, err := c.decode(data)
		if err != nil {
			return
		}
		wire := x.encode(nil)
		if len(wire) > len(data) {
			t.Fatalf("%s: %d input bytes decoded to a message that encodes to %d", c.name, len(data), len(wire))
		}
		y, err := c.decode(wire)
		if err != nil {
			t.Fatalf("%s: re-decoding a decoded message: %v", c.name, err)
		}
		if !hasNaN(x.msg) && !reflect.DeepEqual(x.msg, y.msg) {
			t.Fatalf("%s: round trip changed the message:\n %+v\n %+v", c.name, x.msg, y.msg)
		}
		if !bytes.Equal(y.encode(nil), wire) {
			t.Fatalf("%s: round trip changed the encoding", c.name)
		}
	})
}
