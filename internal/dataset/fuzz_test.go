package dataset

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestReadHostileRowCount: a 27-byte PAWD file whose header claims 2⁴⁰ rows
// of two columns is an error that costs no more memory than the bytes that
// arrived — not a 16 TiB column allocation.
func TestReadHostileRowCount(t *testing.T) {
	file := []byte{0x44, 0x57, 0x41, 0x50, 1, 0, 2, 0} // magic, version 1, 2 columns
	file = binary.LittleEndian.AppendUint64(file, 1<<40)
	file = append(file, 1, 0, 'a', 1, 0, 'b') // the two names
	file = append(file, 0, 0, 0, 0xf0, 0x3f)  // five bytes of the first value
	if len(file) != 27 {
		t.Fatalf("hostile file is %d bytes, want 27", len(file))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(bytes.NewReader(file))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a 27-byte file claiming 2⁴⁰ rows decoded")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("reading %d hostile bytes allocated %d", len(file), got)
	}
}

// FuzzRead: arbitrary bytes read as an error or as a dataset that writes out
// to a file reading back as the same names and value bits — never a panic,
// never memory the input did not pay for. A PAWD file is what pawmaster -drift
// and pawcli build -in load.
func FuzzRead(f *testing.F) {
	text, err := os.ReadFile("testdata/golden.pawd.hex")
	if err != nil {
		f.Fatal(err)
	}
	golden, err := hex.DecodeString(strings.ReplaceAll(string(text), "\n", ""))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)-3])
	var buf bytes.Buffer
	if _, err := Uniform(20, 3, 1).WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if _, err := d.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		again, err := Read(&out)
		if err != nil {
			t.Fatalf("a written dataset does not read back: %v", err)
		}
		if !slices.Equal(again.Names(), d.Names()) || again.NumRows() != d.NumRows() {
			t.Fatalf("read back %v × %d rows, want %v × %d", again.Names(), again.NumRows(), d.Names(), d.NumRows())
		}
		for c := 0; c < d.Dims(); c++ {
			for r := 0; r < d.NumRows(); r++ {
				if math.Float64bits(again.At(r, c)) != math.Float64bits(d.At(r, c)) {
					t.Fatalf("row %d column %d reads back as %v, want %v", r, c, again.At(r, c), d.At(r, c))
				}
			}
		}
	})
}
