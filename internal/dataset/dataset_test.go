package dataset

import (
	"bytes"
	"math"
	"testing"

	"paw/internal/geom"
)

func TestNewValidation(t *testing.T) {
	if _, err := New([]string{"a"}, [][]float64{{1}, {2}}); err == nil {
		t.Error("mismatched names/columns must error")
	}
	if _, err := New(nil, nil); err == nil {
		t.Error("empty dataset must error")
	}
	if _, err := New([]string{"a", "b"}, [][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged columns must error")
	}
	d, err := New([]string{"x", "y"}, [][]float64{{1, 2, 3}, {4, 5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumRows() != 3 || d.Dims() != 2 {
		t.Errorf("rows=%d dims=%d", d.NumRows(), d.Dims())
	}
}

func TestAccessors(t *testing.T) {
	d := MustNew([]string{"x", "y"}, [][]float64{{1, 2, 3}, {4, 5, 6}})
	if d.At(1, 0) != 2 || d.At(2, 1) != 6 {
		t.Error("At returned wrong values")
	}
	p := d.Point(0)
	if p[0] != 1 || p[1] != 4 {
		t.Errorf("Point(0) = %v", p)
	}
	if d.RowBytes() != 32 {
		t.Errorf("RowBytes = %d, want 32", d.RowBytes())
	}
	if d.TotalBytes() != 96 {
		t.Errorf("TotalBytes = %d, want 96", d.TotalBytes())
	}
}

func TestDomain(t *testing.T) {
	d := MustNew([]string{"x", "y"}, [][]float64{{1, -2, 3}, {4, 5, 0}})
	dom := d.Domain()
	want := geom.Box{Lo: geom.Point{-2, 0}, Hi: geom.Point{3, 5}}
	if !dom.Equal(want) {
		t.Errorf("Domain = %v, want %v", dom, want)
	}
}

func TestRowInBoxAndCount(t *testing.T) {
	d := MustNew([]string{"x", "y"}, [][]float64{{0, 1, 2, 3}, {0, 1, 2, 3}})
	q := geom.Box{Lo: geom.Point{1, 1}, Hi: geom.Point{2, 2}}
	if d.CountInBox(q, nil) != 2 {
		t.Errorf("CountInBox = %d, want 2", d.CountInBox(q, nil))
	}
	if got := d.CountInBox(q, []int{0, 1}); got != 1 {
		t.Errorf("CountInBox(subset) = %d, want 1", got)
	}
}

func TestProject(t *testing.T) {
	d := TPCHLike(100, 1)
	p := d.Project(3)
	if p.Dims() != 3 || p.NumRows() != 100 {
		t.Errorf("Project: dims=%d rows=%d", p.Dims(), p.NumRows())
	}
	if p.Names()[2] != TPCHLineitemNames[2] {
		t.Error("Project kept wrong names")
	}
	defer func() {
		if recover() == nil {
			t.Error("Project(0) must panic")
		}
	}()
	d.Project(0)
}

func TestNormalize(t *testing.T) {
	d := TPCHLike(2000, 21)
	n := d.Normalize()
	dom := n.Domain()
	for dim := 0; dim < n.Dims(); dim++ {
		if dom.Lo[dim] != 0 || math.Abs(dom.Hi[dim]-1) > 1e-12 {
			t.Errorf("dim %d domain [%v, %v], want [0,1]", dim, dom.Lo[dim], dom.Hi[dim])
		}
	}
	// Order is preserved (affine map is monotone).
	for i := 1; i < 100; i++ {
		if (d.At(i, 1) < d.At(i-1, 1)) != (n.At(i, 1) < n.At(i-1, 1)) {
			t.Fatal("Normalize broke value order")
		}
	}
	// Degenerate column maps to zero.
	flat := MustNew([]string{"c"}, [][]float64{{5, 5, 5}})
	nf := flat.Normalize()
	for i := 0; i < 3; i++ {
		if nf.At(i, 0) != 0 {
			t.Errorf("degenerate column value = %v", nf.At(i, 0))
		}
	}
}

func TestTPCHLike(t *testing.T) {
	d := TPCHLike(5000, 42)
	if d.Dims() != 8 || d.NumRows() != 5000 {
		t.Fatalf("dims=%d rows=%d", d.Dims(), d.NumRows())
	}
	dom := d.Domain()
	// Quantity in [1,50].
	if dom.Lo[0] < 1 || dom.Hi[0] > 50 {
		t.Errorf("quantity domain %v-%v out of range", dom.Lo[0], dom.Hi[0])
	}
	// Discount in [0, 0.1].
	if dom.Lo[2] < 0 || dom.Hi[2] > 0.1+1e-9 {
		t.Errorf("discount domain %v-%v out of range", dom.Lo[2], dom.Hi[2])
	}
	// Dates in [1, 2526].
	for _, dim := range []int{4, 5, 6} {
		if dom.Lo[dim] < 1 || dom.Hi[dim] > 2526 {
			t.Errorf("date dim %d domain %v-%v out of range", dim, dom.Lo[dim], dom.Hi[dim])
		}
	}
	// Determinism.
	d2 := TPCHLike(5000, 42)
	for dim := 0; dim < 8; dim++ {
		if d.At(123, dim) != d2.At(123, dim) {
			t.Fatal("TPCHLike not deterministic for equal seeds")
		}
	}
	// Uniformity sanity: quantity mean should be near 25.5.
	sum := 0.0
	for i := 0; i < d.NumRows(); i++ {
		sum += d.At(i, 0)
	}
	if mean := sum / float64(d.NumRows()); math.Abs(mean-25.5) > 1.5 {
		t.Errorf("quantity mean = %v, want ~25.5", mean)
	}
}

func TestOSMLike(t *testing.T) {
	d := OSMLike(20000, 10, 7)
	if d.Dims() != 2 || d.NumRows() != 20000 {
		t.Fatalf("dims=%d rows=%d", d.Dims(), d.NumRows())
	}
	dom := d.Domain()
	if dom.Lo[0] < -180 || dom.Hi[0] > 180 || dom.Lo[1] < -85 || dom.Hi[1] > 85 {
		t.Errorf("OSM domain out of range: %v", dom)
	}
	// Skew sanity: the densest 1% of the lon range should hold far more than
	// 1% of points (Gaussian clusters). Use a histogram over lon.
	const bins = 100
	hist := make([]int, bins)
	for i := 0; i < d.NumRows(); i++ {
		b := int((d.At(i, 0) + 180) / 360 * bins)
		if b >= bins {
			b = bins - 1
		}
		hist[b]++
	}
	max := 0
	for _, h := range hist {
		if h > max {
			max = h
		}
	}
	if float64(max) < 3*float64(d.NumRows())/bins {
		t.Errorf("OSM data not skewed enough: max bin %d of %d rows", max, d.NumRows())
	}
}

func TestUniformGenerator(t *testing.T) {
	d := Uniform(1000, 4, 3)
	if d.Dims() != 4 || d.NumRows() != 1000 {
		t.Fatal("shape wrong")
	}
	dom := d.Domain()
	for dim := 0; dim < 4; dim++ {
		if dom.Lo[dim] < 0 || dom.Hi[dim] > 1 {
			t.Errorf("dim %d domain %v-%v", dim, dom.Lo[dim], dom.Hi[dim])
		}
	}
	if d.Names()[3] != "a3" {
		t.Errorf("name = %q, want a3", d.Names()[3])
	}
}

func TestSample(t *testing.T) {
	d := Uniform(1000, 2, 1)
	idx := d.Sample(100, 5)
	if len(idx) != 100 {
		t.Fatalf("sample size = %d", len(idx))
	}
	seen := map[int]bool{}
	prev := -1
	for _, i := range idx {
		if i < 0 || i >= 1000 {
			t.Fatalf("index %d out of range", i)
		}
		if seen[i] {
			t.Fatalf("duplicate index %d", i)
		}
		if i <= prev {
			t.Fatal("sample not sorted ascending")
		}
		seen[i] = true
		prev = i
	}
	// Sampling more than the population returns everything.
	all := d.Sample(5000, 5)
	if len(all) != 1000 {
		t.Errorf("oversample returned %d rows", len(all))
	}
	// Determinism.
	idx2 := d.Sample(100, 5)
	for k := range idx {
		if idx[k] != idx2[k] {
			t.Fatal("Sample not deterministic for equal seeds")
		}
	}
}

func TestRoundTripIO(t *testing.T) {
	d := TPCHLike(500, 9)
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dims() != d.Dims() || got.NumRows() != d.NumRows() {
		t.Fatalf("shape mismatch after round trip")
	}
	for i, n := range d.Names() {
		if got.Names()[i] != n {
			t.Errorf("name %d = %q, want %q", i, got.Names()[i], n)
		}
	}
	for i := 0; i < d.NumRows(); i += 37 {
		for dim := 0; dim < d.Dims(); dim++ {
			if got.At(i, dim) != d.At(i, dim) {
				t.Fatalf("value mismatch at row %d dim %d", i, dim)
			}
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8})); err == nil {
		t.Error("bad magic must error")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Error("empty input must error")
	}
	// Truncated payload.
	d := Uniform(100, 2, 1)
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := Read(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated input must error")
	}
}
