package layout

import (
	"bytes"
	"math/rand"
	"testing"

	"paw/internal/geom"
)

// FuzzDecode asserts the layout reader never panics on arbitrary bytes and
// that whatever it accepts round-trips.
func FuzzDecode(f *testing.F) {
	// Seed with a real encoded layout plus mutations.
	l, _ := fuzzGrid()
	l.Delta, l.Hist = 0.5, []geom.Box{box2(1, 1, 4, 9), box2(6, 2, 7, 3)}
	var buf bytes.Buffer
	if err := l.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0x4c, 0x57, 0x41, 0x50}) // magic only
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted layouts must re-encode.
		var out bytes.Buffer
		if err := got.Encode(&out); err != nil {
			t.Fatalf("accepted layout failed to re-encode: %v", err)
		}
		again, err := Decode(&out)
		if err != nil {
			t.Fatalf("re-encoded layout failed to decode: %v", err)
		}
		if again.NumPartitions() != got.NumPartitions() {
			t.Fatal("round trip changed partition count")
		}
	})
}

// FuzzRoutingDifferential drives the random-layout generator from a fuzzed
// seed and asserts the sealed routing index answers PartitionsFor, QueryCost
// and point routing byte-identically to the retained linear reference —
// including after an encode/decode round trip, which rebuilds the index from
// scratch.
func FuzzRoutingDifferential(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42, 1 << 40, -3} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		l := randomLayout(r)
		diffRouting(t, r, l)

		var buf bytes.Buffer
		if err := l.Encode(&buf); err != nil {
			t.Fatalf("encode: %v", err)
		}
		back, err := Decode(&buf)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		diffRouting(t, rand.New(rand.NewSource(seed+1)), back)
	})
}

// fuzzGrid builds a small routed layout for fuzz seeding without the testing
// helpers (which require *testing.T).
func fuzzGrid() (*Layout, error) {
	mk := func(b [4]float64) *Node {
		bx := box2(b[0], b[1], b[2], b[3])
		return &Node{Desc: NewRect(bx), Part: &Partition{Desc: NewRect(bx)}}
	}
	root := &Node{Desc: NewRect(box2(0, 0, 10, 10)), Children: []*Node{
		mk([4]float64{0, 0, 5, 10}), mk([4]float64{5, 0, 10, 10}),
	}}
	return Seal("fuzz", root, 16), nil
}
