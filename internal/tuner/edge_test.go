package tuner

import (
	"testing"

	"paw/internal/dataset"
	"paw/internal/geom"
	"paw/internal/invariant"
	"paw/internal/kdtree"
	"paw/internal/layout"
)

// box2 builds a 2-d box.
func box2(x0, y0, x1, y1 float64) geom.Box {
	return geom.Box{Lo: geom.Point{x0, y0}, Hi: geom.Point{x1, y1}}
}

// singlePartitionLayout seals a layout whose tree is one leaf over the whole
// domain — the degenerate case where extras are the only possible pruning.
func singlePartitionLayout(data *dataset.Dataset) *layout.Layout {
	desc := layout.NewRect(data.Domain())
	root := &layout.Node{Desc: desc, Part: &layout.Partition{Desc: desc}}
	l := layout.Seal("single", root, data.RowBytes())
	l.Route(data)
	return l
}

// TestSelectEdgeCases is the table-driven sweep over the tuner's boundary
// behaviours: degenerate budgets, budgets larger than everything, exact
// gain ties and single-partition layouts.
func TestSelectEdgeCases(t *testing.T) {
	data := dataset.Uniform(3000, 2, 5)
	kd := kdtree.Build(data, allRows(3000), data.Domain(), kdtree.Params{MinRows: 120})
	kd.Route(data)
	single := singlePartitionLayout(data)
	queries := func(boxes ...geom.Box) []geom.Box { return boxes }

	dom := data.Domain()
	w := dom.Hi[0] - dom.Lo[0]
	h := dom.Hi[1] - dom.Lo[1]
	// Two disjoint congruent queries over uniform data: symmetric
	// candidates whose sizes — and, on the single-partition layout, whose
	// gains — tie almost exactly.
	qa := box2(dom.Lo[0]+0.1*w, dom.Lo[1]+0.1*h, dom.Lo[0]+0.3*w, dom.Lo[1]+0.3*h)
	qb := box2(dom.Lo[0]+0.6*w, dom.Lo[1]+0.6*h, dom.Lo[0]+0.8*w, dom.Lo[1]+0.8*h)

	cases := []struct {
		name    string
		layout  *layout.Layout
		queries []geom.Box
		budget  int64
		// wantMin/wantMax bound the number of selected extras.
		wantMin, wantMax int
	}{
		{name: "zero-budget", layout: kd, queries: queries(qa, qb), budget: 0, wantMin: 0, wantMax: 0},
		{name: "negative-budget", layout: kd, queries: queries(qa, qb), budget: -100, wantMin: 0, wantMax: 0},
		{name: "no-queries", layout: kd, queries: nil, budget: data.TotalBytes(), wantMin: 0, wantMax: 0},
		{name: "budget-exceeds-total", layout: kd, queries: queries(qa, qb),
			budget: 10 * data.TotalBytes(), wantMin: 1, wantMax: 2},
		{name: "gain-ties", layout: single, queries: queries(qa, qb),
			budget: 10 * data.TotalBytes(), wantMin: 2, wantMax: 2},
		{name: "single-partition", layout: single, queries: queries(qa),
			budget: data.TotalBytes(), wantMin: 1, wantMax: 1},
		{name: "budget-below-any-candidate", layout: kd, queries: queries(qa, qb), budget: 1,
			wantMin: 0, wantMax: 0},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			extras := Select(tc.layout, data, tc.queries, tc.budget)
			if n := len(extras); n < tc.wantMin || n > tc.wantMax {
				t.Fatalf("selected %d extras, want between %d and %d", n, tc.wantMin, tc.wantMax)
			}
			if got := totalBytes(extras); tc.budget > 0 && got > tc.budget {
				t.Fatalf("extras occupy %d bytes, budget is %d", got, tc.budget)
			}
			// Whatever was selected must satisfy the tuner oracle.
			budget := tc.budget
			if budget < 0 {
				budget = 0
			}
			if err := invariant.CheckTuner(tc.layout, data, tc.queries, extras, budget); err != nil {
				t.Fatalf("tuner invariants violated: %v", err)
			}
		})
	}
}

// TestSelectTieDeterminism pins the tie-breaking order: with symmetric
// candidates the selection must be reproducible run to run (first maximal
// gain in candidate order wins).
func TestSelectTieDeterminism(t *testing.T) {
	data := dataset.Uniform(3000, 2, 5)
	single := singlePartitionLayout(data)
	dom := data.Domain()
	w := dom.Hi[0] - dom.Lo[0]
	h := dom.Hi[1] - dom.Lo[1]
	qs := []geom.Box{
		box2(dom.Lo[0]+0.1*w, dom.Lo[1]+0.1*h, dom.Lo[0]+0.3*w, dom.Lo[1]+0.3*h),
		box2(dom.Lo[0]+0.6*w, dom.Lo[1]+0.6*h, dom.Lo[0]+0.8*w, dom.Lo[1]+0.8*h),
	}
	first := Select(single, data, qs, data.TotalBytes())
	for i := 0; i < 5; i++ {
		again := Select(single, data, qs, data.TotalBytes())
		if len(again) != len(first) {
			t.Fatalf("run %d selected %d extras, first run %d", i, len(again), len(first))
		}
		for j := range first {
			if !again[j].Box.Equal(first[j].Box) || again[j].FullRows != first[j].FullRows {
				t.Fatalf("run %d extra %d diverges: %+v vs %+v", i, j, again[j], first[j])
			}
		}
	}
}
