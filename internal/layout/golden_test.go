package layout

import (
	"bytes"
	"encoding/hex"
	"os"
	"slices"
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

// TestPAWLGolden pins the PAWL format byte for byte on a hand-built layout
// with what the built layouts of internal/sim's golden digests never carry:
// an irregular node (a rectangle with a hole) and a partition with precise
// boxes. It encodes to testdata/golden.pawl.hex, and the fixture decodes to a
// layout that routes like the original and encodes to the fixture again.
func TestPAWLGolden(t *testing.T) {
	outer := box2(0, 0, 10, 10)
	hole := box2(4, 4, 6, 6)
	inner := &Node{Desc: NewRect(hole), Part: &Partition{Desc: NewRect(hole)}}
	ring := NewIrregular(outer, []geom.Box{hole})
	around := &Node{Desc: ring, Part: &Partition{Desc: ring}}
	root := &Node{Desc: NewRect(outer), Children: []*Node{inner, around}}
	l := Seal("paw", root, 32)
	l.Parts[0].FullRows = 7
	l.Parts[0].Precise = []geom.Box{box2(4, 4.5, 5, 6), box2(5.5, 4, 6, 5)}
	l.Parts[1].FullRows = 13
	l.TotalBytes, l.Unrouted = 640, 3

	var buf bytes.Buffer
	if err := l.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	want := goldenHex(t, "testdata/golden.pawl.hex", buf.Bytes())
	got, err := Decode(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := got.Encode(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), want) {
		t.Fatalf("the decoded fixture re-encodes to\n%x, want\n%x", again.Bytes(), want)
	}
	for _, q := range []geom.Box{box2(4.5, 4.5, 4.6, 4.6), box2(0, 0, 1, 1), box2(5.1, 5.1, 5.2, 5.2), outer} {
		if a, b := l.PartitionsFor(q), got.PartitionsFor(q); !slices.Equal(a, b) {
			t.Errorf("PartitionsFor(%v): %v after decoding, want %v", q, b, a)
		}
	}
}
