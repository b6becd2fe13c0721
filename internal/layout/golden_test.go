package layout

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
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
// boxes; it also carries a scope, δ and two QH queries, its two column names
// and a recipe. It encodes to testdata/golden.pawl.hex, and the fixture
// decodes to a layout that routes like the original and encodes to the
// fixture again.
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
	l.Delta, l.Hist = 0.5, []geom.Box{box2(1, 1, 4.5, 2), box2(4.25, 4.25, 5.75, 5.75)}
	l.Names = []string{"x", "y"}
	l.MinRows, l.SampleRate = 4, 0.25

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
	if got.Delta != l.Delta || !slices.EqualFunc(got.Hist, l.Hist, geom.Box.Equal) || !slices.Equal(got.Names, l.Names) {
		t.Fatalf("the fixture decodes to δ %g, QH %v and columns %q, want %g, %v and %q",
			got.Delta, got.Hist, got.Names, l.Delta, l.Hist, l.Names)
	}
	if got.MinRows != l.MinRows || got.SampleRate != l.SampleRate {
		t.Fatalf("the fixture decodes to bmin %d at rate %g, want %d at %g", got.MinRows, got.SampleRate, l.MinRows, l.SampleRate)
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

// TestPAWLRefusesWhatItCannotRoute: the golden fixture with its version word
// set to 2 or 3 — a file from before layouts carried their column names or
// their recipe — is refused with an error that names the version and says how
// to get a version-4 file; a layout whose name count is not its
// dimensionality, and one whose recipe cannot be built (bmin below one sample
// row, a sampling rate outside (0, 1]), are refused on decoding.
func TestPAWLRefusesWhatItCannotRoute(t *testing.T) {
	text, err := os.ReadFile("testdata/golden.pawl.hex")
	if err != nil {
		t.Fatal(err)
	}
	old, err := hex.DecodeString(strings.ReplaceAll(string(text), "\n", ""))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint16{2, 3} {
		binary.LittleEndian.PutUint16(old[4:], v)
		if _, err := Decode(bytes.NewReader(old)); err == nil ||
			!strings.Contains(err.Error(), fmt.Sprintf("version %d", v)) || !strings.Contains(err.Error(), "rebuild with `pawcli build`") {
			t.Errorf("a version-%d file: got %v, want a refusal naming the version and pawcli build", v, err)
		}
	}
	l, _ := grid4(t)
	for _, names := range [][]string{{"x"}, {"x", "y", "z"}} {
		l.Names = names
		var buf bytes.Buffer
		if err := l.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("%d column names for a 2-d layout", len(names))
		if _, err := Decode(&buf); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%d names: got %v, want %q", len(names), err, want)
		}
	}
	l.Names = nil
	for _, c := range []struct {
		minRows int
		rate    float64
		want    string
	}{
		{0, 0.25, "bmin of 0 sample rows"},
		{-3, 0.25, "bmin of -3 sample rows"},
		{4, 0, "sampling rate 0 is outside"},
		{4, -0.5, "sampling rate -0.5 is outside"},
		{4, 1.5, "sampling rate 1.5 is outside"},
		{4, math.NaN(), "sampling rate NaN is outside"},
	} {
		l.MinRows, l.SampleRate = c.minRows, c.rate
		var buf bytes.Buffer
		if err := l.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(&buf); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("recipe bmin %d at rate %g: got %v, want %q", c.minRows, c.rate, err, c.want)
		}
	}
}
