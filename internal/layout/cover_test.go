package layout

import (
	"strings"
	"testing"

	"paw/internal/geom"
)

func TestCostRows(t *testing.T) {
	pieces := []Piece{
		{Desc: NewRect(box2(0, 0, 5, 5)), Rows: 10},
		{Desc: NewRect(box2(5, 0, 10, 5)), Rows: 20},
	}
	queries := []geom.Box{
		box2(1, 1, 2, 2),     // hits piece 0 only
		box2(1, 1, 9, 4),     // hits both
		box2(20, 20, 21, 21), // hits none
	}
	if got := CostRows(pieces, queries); got != 10+30 {
		t.Errorf("CostRows = %d, want 40", got)
	}
	if got := CostRows(nil, queries); got != 0 {
		t.Errorf("no pieces cost = %d", got)
	}
	if got := CostRows(pieces, nil); got != 0 {
		t.Errorf("no queries cost = %d", got)
	}
}

func TestScanRatioUnrouted(t *testing.T) {
	// A layout that was never routed has TotalBytes 0 and must report a
	// zero ratio instead of dividing by zero.
	b := box2(0, 0, 1, 1)
	root := &Node{Desc: NewRect(b), Part: &Partition{Desc: NewRect(b)}}
	l := Seal("x", root, 8)
	if got := l.ScanRatio([]geom.Box{b}, nil); got != 0 {
		t.Errorf("unrouted ScanRatio = %v", got)
	}
}

func TestDescriptorAccessors(t *testing.T) {
	ir := NewIrregular(box2(0, 0, 10, 10), []geom.Box{box2(4, 4, 6, 6)})
	if ir.Region().IsEmpty() {
		t.Error("region must not be empty")
	}
	full := NewIrregular(box2(0, 0, 10, 10), []geom.Box{box2(-1, -1, 11, 11)})
	if !full.Region().IsEmpty() {
		t.Error("fully covered descriptor must be empty")
	}
	r := NewRect(box2(0, 0, 1, 1))
	if r.Kind() != KindRect || ir.Kind() != KindIrregular {
		t.Error("kinds wrong")
	}
}

func TestLayoutString(t *testing.T) {
	outer := box2(0, 0, 10, 10)
	hole := box2(4, 4, 6, 6)
	gp := &Node{Desc: NewRect(hole), Part: &Partition{Desc: NewRect(hole)}}
	ipDesc := NewIrregular(outer, []geom.Box{hole})
	ip := &Node{Desc: ipDesc, Part: &Partition{Desc: ipDesc}}
	root := &Node{Desc: NewRect(outer), Children: []*Node{gp, ip}}
	l := Seal("paw", root, 8)
	s := l.String()
	for _, want := range []string{"paw", "2 partitions", "1 irregular"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

// failWriter errors after a byte budget, driving Encode's error branches.
type failWriter struct{ left int }

type failErr struct{}

func (failErr) Error() string { return "simulated write failure" }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.left <= 0 {
		return 0, failErr{}
	}
	n := len(p)
	if n > w.left {
		n = w.left
	}
	w.left -= n
	if n < len(p) {
		return n, failErr{}
	}
	return n, nil
}

func TestEncodeWriteFailures(t *testing.T) {
	outer := box2(0, 0, 10, 10)
	hole := box2(4, 4, 6, 6)
	gp := &Node{Desc: NewRect(hole), Part: &Partition{Desc: NewRect(hole), Precise: []geom.Box{hole}}}
	ipDesc := NewIrregular(outer, []geom.Box{hole})
	ip := &Node{Desc: ipDesc, Part: &Partition{Desc: ipDesc}}
	root := &Node{Desc: NewRect(outer), Children: []*Node{gp, ip}}
	l := Seal("paw", root, 8)
	for _, cut := range []int{0, 2, 4, 6, 8, 15, 30, 60, 120, 200} {
		if err := l.Encode(&failWriter{left: cut}); err == nil {
			t.Errorf("Encode with %d-byte budget must fail", cut)
		}
	}
	// An unknown descriptor type must be rejected rather than silently
	// mis-serialised.
	bad := Seal("x", &Node{Desc: fakeDesc{}, Part: &Partition{Desc: fakeDesc{}}}, 8)
	var sink strings.Builder
	if err := bad.Encode(&sink); err == nil {
		t.Error("unknown descriptor type must error")
	}
}

type fakeDesc struct{}

func (fakeDesc) Intersects(geom.Box) bool { return false }
func (fakeDesc) Contains(geom.Point) bool { return false }
func (fakeDesc) MBR() geom.Box            { return geom.Box{Lo: geom.Point{0}, Hi: geom.Point{1}} }
func (fakeDesc) Kind() Kind               { return Kind(42) }
