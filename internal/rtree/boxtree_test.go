package rtree

import (
	"math/rand"
	"sort"
	"testing"

	"paw/internal/geom"
)

func randBox(r *rand.Rand, dims int, maxExtent float64) geom.Box {
	lo := make(geom.Point, dims)
	hi := make(geom.Point, dims)
	for d := 0; d < dims; d++ {
		lo[d] = r.Float64() * 100
		hi[d] = lo[d] + r.Float64()*maxExtent
	}
	return geom.Box{Lo: lo, Hi: hi}
}

func bruteIntersecting(boxes []geom.Box, q geom.Box) []int {
	var out []int
	for i, b := range boxes {
		if b.Intersects(q) {
			out = append(out, i)
		}
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestBoxIndexMatchesBrute(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for _, n := range []int{0, 1, 2, 7, 64, 500} {
		for _, dims := range []int{1, 2, 4} {
			boxes := make([]geom.Box, n)
			for i := range boxes {
				boxes[i] = randBox(r, dims, 15)
			}
			packed := PackBoxes(boxes, 8)
			str := STRBoxes(boxes, 8)
			if len(packed.boxes) != n || len(str.boxes) != n {
				t.Fatalf("indexed boxes: packed %d str %d want %d", len(packed.boxes), len(str.boxes), n)
			}
			for trial := 0; trial < 50; trial++ {
				q := randBox(r, dims, 40)
				want := bruteIntersecting(boxes, q)
				got := packed.AppendIntersecting(nil, q)
				// PackBoxes results must already be in ascending index order.
				if !sort.IntsAreSorted(got) {
					t.Fatalf("PackBoxes result not sorted: %v", got)
				}
				if !equalInts(got, want) {
					t.Fatalf("n=%d dims=%d packed got %v want %v", n, dims, got, want)
				}
				gotSTR := str.AppendIntersecting(nil, q)
				sort.Ints(gotSTR)
				if !equalInts(gotSTR, want) {
					t.Fatalf("n=%d dims=%d STR got %v want %v", n, dims, gotSTR, want)
				}
			}
		}
	}
}

func TestBoxIndexEmptyQuery(t *testing.T) {
	boxes := []geom.Box{geom.UnitBox(2)}
	idx := PackBoxes(boxes, 4)
	empty := geom.Box{Lo: geom.Point{1, 1}, Hi: geom.Point{0, 0}}
	if got := idx.AppendIntersecting(nil, empty); got != nil {
		t.Fatalf("empty query returned %v", got)
	}
	dst := []int{7}
	if got := idx.AppendIntersecting(dst, geom.UnitBox(2)); !equalInts(got, []int{7, 0}) {
		t.Fatalf("append did not preserve dst prefix: %v", got)
	}
}

func TestBoxIndexEmptyMemberBoxes(t *testing.T) {
	// Inverted (empty) member boxes must never match, and must not shrink
	// the internal MBRs so that valid siblings are lost.
	boxes := []geom.Box{
		{Lo: geom.Point{5, 5}, Hi: geom.Point{0, 0}}, // empty
		geom.UnitBox(2),
	}
	idx := PackBoxes(boxes, 2)
	got := idx.AppendIntersecting(nil, geom.UnitBox(2))
	if !equalInts(got, []int{1}) {
		t.Fatalf("got %v, want [1]", got)
	}
}

type acceptAll struct{}

func (acceptAll) AcceptPoint(int, geom.Point) bool { return true }

type acceptOdd struct{}

func (acceptOdd) AcceptPoint(i int, _ geom.Point) bool { return i%2 == 1 }

func TestFirstContaining(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	boxes := make([]geom.Box, 200)
	for i := range boxes {
		boxes[i] = randBox(r, 2, 25) // heavy overlap
	}
	idx := PackBoxes(boxes, 8)
	for trial := 0; trial < 200; trial++ {
		p := geom.Point{r.Float64() * 110, r.Float64() * 110}
		// Brute-force first containing index.
		want := -1
		for i, b := range boxes {
			if b.Contains(p) {
				want = i
				break
			}
		}
		if got := idx.FirstContaining(p, acceptAll{}); got != want {
			t.Fatalf("FirstContaining(%v) = %d, want %d", p, got, want)
		}
		wantOdd := -1
		for i, b := range boxes {
			if i%2 == 1 && b.Contains(p) {
				wantOdd = i
				break
			}
		}
		if got := idx.FirstContaining(p, acceptOdd{}); got != wantOdd {
			t.Fatalf("FirstContaining odd(%v) = %d, want %d", p, got, wantOdd)
		}
	}
	var nilIdx *BoxIndex
	if got := nilIdx.FirstContaining(geom.Point{0, 0}, acceptAll{}); got != -1 {
		t.Fatalf("nil index FirstContaining = %d", got)
	}
}

func TestBoxIndexHeight(t *testing.T) {
	boxes := make([]geom.Box, 100)
	for i := range boxes {
		boxes[i] = geom.UnitBox(2)
	}
	idx := PackBoxes(boxes, 4)
	if h := idx.Height(); h < 3 {
		t.Fatalf("height %d, want >= 3 for 100 boxes at cap 4", h)
	}
	if h := PackBoxes(nil, 4).Height(); h != 0 {
		t.Fatalf("empty height %d", h)
	}
}
