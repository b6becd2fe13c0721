package workload

import (
	"bytes"
	"encoding/hex"
	"os"
	"strings"
	"testing"
)

// FuzzDecodeLog: arbitrary bytes decode to an error or to a log that encodes
// to bytes decoding to the same queries, bit for bit (so NaN coordinates
// included) — never a panic, never memory the input did not pay for. A PAWQ log is what pawmaster -drift-hist loads.
func FuzzDecodeLog(f *testing.F) {
	text, err := os.ReadFile("testdata/golden.pawq.hex")
	if err != nil {
		f.Fatal(err)
	}
	golden, err := hex.DecodeString(strings.ReplaceAll(string(text), "\n", ""))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)-5])
	f.Add(golden[:16])
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := DecodeLog(bytes.NewReader(data))
		if err != nil {
			return
		}
		var wire, again bytes.Buffer
		if err := l.Encode(&wire); err != nil {
			t.Fatal(err)
		}
		back, err := DecodeLog(bytes.NewReader(wire.Bytes()))
		if err != nil {
			t.Fatalf("an encoded log does not decode: %v", err)
		}
		if err := back.Encode(&again); err != nil {
			t.Fatal(err)
		}
		if back.Len() != l.Len() || !bytes.Equal(again.Bytes(), wire.Bytes()) {
			t.Fatalf("round trip changed the log: %d queries encoding to %x, want %d encoding to %x", back.Len(), again.Bytes(), l.Len(), wire.Bytes())
		}
	})
}
