package layout

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"

	"paw/internal/geom"
)

func TestLayoutRoundTrip(t *testing.T) {
	l, _ := grid4(t)
	l.Parts[0].Precise = []geom.Box{box2(1, 1, 2, 2)}
	l.Delta, l.Hist = 0.25, []geom.Box{box2(1, 1, 3, 3), box2(6, 0, 9, 2)}
	var buf bytes.Buffer
	if err := l.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Method != l.Method || got.RowBytes != l.RowBytes ||
		got.TotalBytes != l.TotalBytes || got.Unrouted != l.Unrouted ||
		got.Delta != l.Delta || !slices.EqualFunc(got.Hist, l.Hist, geom.Box.Equal) {
		t.Fatalf("header mismatch: %+v", got)
	}
	if got.NumPartitions() != l.NumPartitions() {
		t.Fatalf("partitions: %d vs %d", got.NumPartitions(), l.NumPartitions())
	}
	for i, p := range l.Parts {
		q := got.Parts[i]
		if q.ID != p.ID || q.FullRows != p.FullRows || q.RowBytes != p.RowBytes {
			t.Errorf("partition %d mismatch: %+v vs %+v", i, q, p)
		}
		if !q.Desc.MBR().Equal(p.Desc.MBR()) {
			t.Errorf("partition %d descriptor mismatch", i)
		}
		if len(q.Precise) != len(p.Precise) {
			t.Errorf("partition %d precise count %d vs %d", i, len(q.Precise), len(p.Precise))
		}
	}
	// Routing decisions must be identical.
	for _, q := range []geom.Box{box2(1, 1, 2, 2), box2(1, 1, 7, 7), box2(3, 3, 4, 4)} {
		a := l.PartitionsFor(q)
		b := got.PartitionsFor(q)
		if len(a) != len(b) {
			t.Fatalf("PartitionsFor(%v): %v vs %v", q, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("PartitionsFor(%v): %v vs %v", q, a, b)
			}
		}
	}
}

func TestLayoutRoundTripIrregular(t *testing.T) {
	outer := box2(0, 0, 10, 10)
	gpBox := box2(4, 4, 6, 6)
	gp := &Node{Desc: NewRect(gpBox), Part: &Partition{Desc: NewRect(gpBox)}}
	ipDesc := NewIrregular(outer, []geom.Box{gpBox})
	ip := &Node{Desc: ipDesc, Part: &Partition{Desc: ipDesc}}
	root := &Node{Desc: NewRect(outer), Children: []*Node{gp, ip}}
	l := Seal("paw", root, 32)
	l.Parts[0].FullRows = 7
	l.Parts[1].FullRows = 13
	l.TotalBytes = 640

	var buf bytes.Buffer
	if err := l.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ir, ok := got.Parts[1].Desc.(Irregular)
	if !ok {
		t.Fatalf("partition 1 descriptor is %T, want Irregular", got.Parts[1].Desc)
	}
	if len(ir.Holes) != 1 || !ir.Holes[0].Equal(gpBox) {
		t.Errorf("holes not preserved: %v", ir.Holes)
	}
	// The reconstructed open region must behave identically.
	if ir.Intersects(box2(4.5, 4.5, 5.5, 5.5)) {
		t.Error("query inside the hole must not intersect after round trip")
	}
	if !ir.Intersects(box2(0, 0, 1, 1)) {
		t.Error("frame query must intersect after round trip")
	}
}

func TestLayoutReadRejectsGarbage(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte{9, 9, 9, 9})); err == nil {
		t.Error("bad magic must error")
	}
	if _, err := Decode(bytes.NewReader(nil)); err == nil {
		t.Error("empty input must error")
	}
	l, _ := grid4(t)
	var buf bytes.Buffer
	if err := l.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{10, buf.Len() / 2, buf.Len() - 3} {
		if _, err := Decode(bytes.NewReader(buf.Bytes()[:cut])); err == nil {
			t.Errorf("truncation at %d must error", cut)
		}
	}
	// Corrupt the descriptor tag of the root.
	b := append([]byte(nil), buf.Bytes()...)
	b[4+2+2+len(l.Method)+24+8+4] = 77 // first node's descTag, behind δ and an empty QH
	if _, err := Decode(bytes.NewReader(b)); err == nil {
		t.Error("unknown descriptor tag must error")
	}
}

// TestDecodeRefusesMixedDimensionality: every box of a file — a descriptor, a
// hole, a precise box, a QH query — has the root's dimensionality, or Decode
// refuses the file. A 1-d child under a 2-d root would otherwise decode, and
// an oracle indexing its second coordinate would panic.
func TestDecodeRefusesMixedDimensionality(t *testing.T) {
	oneD := geom.Box{Lo: geom.Point{0}, Hi: geom.Point{5}}
	for name, corrupt := range map[string]func(*Layout){
		"descriptor": func(l *Layout) { l.Root.Children[0].Desc = NewRect(oneD) },
		"hole": func(l *Layout) { // NewIrregular would panic on it; a file need not
			ir := Irregular{Outer: box2(0, 0, 5, 10), Holes: []geom.Box{oneD}}
			l.Root.Children[0] = &Node{Desc: ir, Part: &Partition{Desc: ir}}
		},
		"precise": func(l *Layout) { l.Parts[1].Precise = []geom.Box{oneD} },
		"hist":    func(l *Layout) { l.Hist = []geom.Box{box2(0, 0, 1, 1), oneD} },
	} {
		l, _ := grid4(t)
		corrupt(l)
		var buf bytes.Buffer
		if err := l.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(&buf); err == nil || !strings.Contains(err.Error(), "1-d box in a 2-d layout") {
			t.Errorf("%s: got %v, want the 1-d box refused", name, err)
		}
	}
}

// TestDecodeRefusesOldVersionsAndBadDelta: a version-1 file, which carries
// no scope, and a negative or NaN δ are refused.
func TestDecodeRefusesOldVersionsAndBadDelta(t *testing.T) {
	l, _ := grid4(t)
	for name, c := range map[string]struct {
		at   int
		word []byte
	}{
		"version 1":  {4, binary.LittleEndian.AppendUint16(nil, 1)},
		"negative δ": {4 + 2 + 2 + len(l.Method) + 24, binary.LittleEndian.AppendUint64(nil, math.Float64bits(-1))},
		"NaN δ":      {4 + 2 + 2 + len(l.Method) + 24, binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN()))},
	} {
		var buf bytes.Buffer
		if err := l.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		b := buf.Bytes()
		copy(b[c.at:], c.word)
		if _, err := Decode(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}
