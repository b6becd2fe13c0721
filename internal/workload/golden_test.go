package workload

import (
	"bytes"
	"encoding/hex"
	"os"
	"reflect"
	"strings"
	"testing"

	"paw/internal/geom"
)

// goldenHex holds got to the hex fixture at path (32-byte lines of lowercase
// hex, the format of internal/dist/testdata/wire) and returns the fixture's
// bytes. UPDATE_GOLDEN=1 rewrites the fixture first, which is then a visible
// diff in review.
func goldenHex(t *testing.T, path string, got []byte) []byte {
	t.Helper()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		var sb strings.Builder
		for b := got; len(b) > 0; b = b[min(32, len(b)):] {
			sb.WriteString(hex.EncodeToString(b[:min(32, len(b))]) + "\n")
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
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
	return want
}

// TestPAWQGolden pins the PAWQ query-log format byte for byte: a log of two
// 2-d queries encodes to testdata/golden.pawq.hex, and the fixture decodes to
// the same entries and continues their sequence numbers.
func TestPAWQGolden(t *testing.T) {
	var l Log
	l.Record(geom.Box{Lo: geom.Point{-1.5, 0}, Hi: geom.Point{2.25, 1e300}})
	l.Record(geom.Box{Lo: geom.Point{3, 4}, Hi: geom.Point{5, 6}})
	var buf bytes.Buffer
	if err := l.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	want := goldenHex(t, "testdata/golden.pawq.hex", buf.Bytes())
	got, err := DecodeLog(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Workload(), l.Workload()) {
		t.Fatalf("fixture decodes to %v, want %v", got.Workload(), l.Workload())
	}
	got.Record(geom.Box{Lo: geom.Point{0, 0}, Hi: geom.Point{1, 1}})
	if seq := got.Workload()[2].Seq; seq != 2 {
		t.Fatalf("a query recorded after decoding has seq %d, want 2", seq)
	}
}
