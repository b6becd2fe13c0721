package dataset

import (
	"bytes"
	"encoding/hex"
	"math"
	"os"
	"strings"
	"testing"
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

// TestPAWDGolden pins the PAWD format byte for byte: a 2-column, 3-row
// dataset (a signed zero, an infinity and a NaN payload among its values)
// encodes to testdata/golden.pawd.hex, and the fixture decodes to the same
// names and value bits.
func TestPAWDGolden(t *testing.T) {
	d := MustNew([]string{"l_quantity", "é"}, [][]float64{
		{1.5, math.Copysign(0, -1), math.Inf(1)},
		{-7, math.Float64frombits(0x7ff8000000000abc), 1e300},
	})
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	want := goldenHex(t, "testdata/golden.pawd.hex", buf.Bytes())
	got, err := Read(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 3 || got.Dims() != 2 {
		t.Fatalf("fixture decodes to %d×%d, want 3×2", got.NumRows(), got.Dims())
	}
	for c, name := range d.Names() {
		if got.Names()[c] != name {
			t.Errorf("column %d is %q, want %q", c, got.Names()[c], name)
		}
		for r := 0; r < 3; r++ {
			if math.Float64bits(got.At(r, c)) != math.Float64bits(d.At(r, c)) {
				t.Errorf("row %d column %d decodes as %v, want %v", r, c, got.At(r, c), d.At(r, c))
			}
		}
	}
}
