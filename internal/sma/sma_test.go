package sma

import (
	"testing"

	"paw/internal/dataset"
	"paw/internal/geom"
)

func data3() *dataset.Dataset {
	return dataset.MustNew([]string{"x", "y"}, [][]float64{{1, 5, 3}, {10, 20, 30}})
}

func TestCompute(t *testing.T) {
	a := Compute(data3(), nil)
	if a.Count != 3 {
		t.Errorf("count = %d", a.Count)
	}
	if a.Min[0] != 1 || a.Max[0] != 5 {
		t.Errorf("dim0 stats: %v %v", a.Min[0], a.Max[0])
	}
	if a.Min[1] != 10 || a.Max[1] != 30 {
		t.Errorf("dim1 stats: %v %v", a.Min[1], a.Max[1])
	}
}

func TestComputeSubset(t *testing.T) {
	a := Compute(data3(), []int{0, 2})
	if a.Count != 2 || a.Min[0] != 1 || a.Max[0] != 3 {
		t.Errorf("subset stats wrong: %+v", a)
	}
}

func TestCanPrune(t *testing.T) {
	a := Compute(data3(), nil)
	cases := []struct {
		q    geom.Box
		want bool
	}{
		{geom.Box{Lo: geom.Point{6, 0}, Hi: geom.Point{9, 100}}, true},   // right of max x
		{geom.Box{Lo: geom.Point{0, 0}, Hi: geom.Point{0.5, 100}}, true}, // left of min x
		{geom.Box{Lo: geom.Point{0, 31}, Hi: geom.Point{10, 40}}, true},  // above max y
		{geom.Box{Lo: geom.Point{2, 15}, Hi: geom.Point{4, 25}}, false},  // overlaps envelope
		{geom.Box{Lo: geom.Point{5, 30}, Hi: geom.Point{6, 31}}, false},  // touches corner
	}
	for _, c := range cases {
		if got := a.CanPrune(c.q); got != c.want {
			t.Errorf("CanPrune(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestEmpty(t *testing.T) {
	a := Compute(data3(), []int{})
	if !a.Empty() {
		t.Error("no rows must be empty")
	}
	if !a.CanPrune(geom.UnitBox(2)) {
		t.Error("empty block prunes everything")
	}
}

func TestMerge(t *testing.T) {
	d := data3()
	x := Compute(d, []int{0})
	y := Compute(d, []int{1, 2})
	m := Merge(x, y)
	full := Compute(d, nil)
	if m.Count != full.Count {
		t.Errorf("merged count = %d", m.Count)
	}
	for dim := 0; dim < 2; dim++ {
		if m.Min[dim] != full.Min[dim] || m.Max[dim] != full.Max[dim] {
			t.Errorf("merged min/max mismatch on dim %d", dim)
		}
	}
	// Merging with empty is the identity.
	e := Compute(d, []int{})
	if got := Merge(x, e); got.Count != x.Count {
		t.Error("merge with empty must be identity")
	}
	if got := Merge(e, y); got.Count != y.Count {
		t.Error("merge with empty must be identity")
	}
}
