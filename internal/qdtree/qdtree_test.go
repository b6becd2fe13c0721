package qdtree

import (
	"math"
	"testing"

	"paw/internal/dataset"
	"paw/internal/geom"
	"paw/internal/layout"
	"paw/internal/parbuild"
	"paw/internal/workload"
)

func allRows(n int) []int {
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	return rows
}

func box2(l0, l1, h0, h1 float64) geom.Box {
	return geom.Box{Lo: geom.Point{l0, l1}, Hi: geom.Point{h0, h1}}
}

func TestCutBoundaryOwnership(t *testing.T) {
	box := box2(0, 0, 10, 10)
	q := box2(3, 0, 7, 10)

	lower := CutAtLower(0, 3)
	lb, rb := lower.Apply(box)
	if lb.Intersects(q) {
		t.Error("left child of a lower-bound cut must not intersect the query")
	}
	if !rb.Intersects(q) {
		t.Error("right child must intersect the query")
	}

	upper := CutAtUpper(0, 7)
	lb, rb = upper.Apply(box)
	if rb.Intersects(q) {
		t.Error("right child of an upper-bound cut must not intersect the query")
	}
	if !lb.Intersects(q) {
		t.Error("left child must intersect the query")
	}
	// Children never overlap.
	if inter, ok := lb.Intersection(rb); ok {
		t.Errorf("children overlap: %v", inter)
	}
}

func TestCutInside(t *testing.T) {
	box := box2(0, 0, 10, 10)
	if CutAtLower(0, 0).Inside(box) {
		t.Error("cut at the box lower boundary separates nothing")
	}
	if CutAtUpper(0, 10).Inside(box) {
		t.Error("cut at the box upper boundary separates nothing")
	}
	if !CutAtLower(0, 5).Inside(box) || !CutAtUpper(1, 5).Inside(box) {
		t.Error("interior cuts must qualify")
	}
}

func TestCandidatesDedup(t *testing.T) {
	box := box2(0, 0, 10, 10)
	qs := []geom.Box{box2(2, 2, 5, 5), box2(2, 3, 5, 6)}
	cands := candidates(box, qs)
	// Dims 0: {2 lower, 5 upper} (deduped). Dim 1: {2,3 lower, 5,6 upper}.
	if len(cands) != 6 {
		t.Errorf("candidates = %d, want 6", len(cands))
	}
}

func TestSplitRows(t *testing.T) {
	data := dataset.MustNew([]string{"x"}, [][]float64{{1, 2, 3, 4, 5}})
	c := CutAtLower(0, 3) // 3 itself goes right
	l, r := SplitRowsN(data, allRows(5), c, 2)
	if len(l) != 2 || len(r) != 3 {
		t.Errorf("lower cut: left=%d right=%d, want 2/3", len(l), len(r))
	}
	c = CutAtUpper(0, 3) // 3 itself goes left
	l, r = SplitRowsN(data, allRows(5), c, 3)
	if len(l) != 3 || len(r) != 2 {
		t.Errorf("upper cut: left=%d right=%d, want 3/2", len(l), len(r))
	}
}

// TestPerfectIsolation reproduces the Qd-tree's defining behaviour: for one
// query on uniform data with a small bmin, the query's region becomes its
// own partition, so the query cost approaches the result size.
func TestPerfectIsolation(t *testing.T) {
	data := dataset.Uniform(2000, 2, 1)
	q := box2(0.3, 0.3, 0.5, 0.5)
	l := Build(data, allRows(2000), data.Domain(), []geom.Box{q}, Params{MinRows: 20})
	l.Route(data)
	if err := l.Validate(data, 20); err != nil {
		t.Fatal(err)
	}
	cost := l.QueryCost(q, nil)
	lb := layout.LowerBoundBytes(data, q)
	if cost > 3*lb {
		t.Errorf("query cost %d far above lower bound %d — query not isolated", cost, lb)
	}
	// The whole-domain scan must cost the full dataset.
	full := l.QueryCost(data.Domain(), nil)
	if full != data.TotalBytes() {
		t.Errorf("domain scan cost %d, want %d", full, data.TotalBytes())
	}
}

func TestRespectsMinRows(t *testing.T) {
	data := dataset.Uniform(1000, 2, 3)
	dom := data.Domain()
	w := workload.Uniform(dom, workload.Defaults(20, 5))
	l := Build(data, allRows(1000), dom, w.Boxes(), Params{MinRows: 100})
	l.Route(data) // the sample is every row, so Validate holds FullRows to bmin
	if err := l.Validate(data, 100); err != nil {
		t.Error(err)
	}
}

func TestLeafRowsMatchRouting(t *testing.T) {
	// The rows every leaf was built with must be the sample rows routing
	// sends it, in order. Values and query bounds lie on a grid, so rows
	// sit on the cuts, whose side is the boundary ownership's to decide.
	grid := func(b geom.Box) geom.Box {
		for d := range b.Lo {
			b.Lo[d], b.Hi[d] = math.Round(b.Lo[d]*20), math.Round(b.Hi[d]*20)
		}
		return b
	}
	uni := dataset.Uniform(4000, 3, 5)
	cols := make([][]float64, uni.Dims())
	for d := range cols {
		for _, v := range uni.Column(d) {
			cols[d] = append(cols[d], math.Round(v*20))
		}
	}
	data := dataset.MustNew(uni.Names(), cols)
	sample := data.Sample(1500, 6)
	sampled, local := data.Gather(sample, 1)
	var qs []geom.Box
	for _, q := range workload.Uniform(uni.Domain(), workload.Defaults(30, 7)).Boxes() {
		qs = append(qs, grid(q.Clone()))
	}
	leaves := &layout.LeafRows{}
	pool := parbuild.New(2)
	b := &builder{data: sampled, minRows: 20, pool: pool, scratch: make([]*Scratch, pool.Slots()), leaves: leaves}
	l := layout.Seal("qd-tree", b.split(data.Domain(), local, ClipBoxes(qs, data.Domain()), 0, pool.RootSlot()), data.RowBytes())
	if l.NumPartitions() < 8 {
		t.Fatalf("want a split layout, got %d partitions", l.NumPartitions())
	}
	if err := leaves.MatchRouting(l, sampled); err != nil {
		t.Error(err)
	}
}

func TestNoQueriesNoSplit(t *testing.T) {
	data := dataset.Uniform(500, 2, 4)
	l := Build(data, allRows(500), data.Domain(), nil, Params{MinRows: 10})
	if l.NumPartitions() != 1 {
		t.Errorf("no workload must produce a single partition, got %d", l.NumPartitions())
	}
}

func TestGreedyImprovesOverUnsplit(t *testing.T) {
	data := dataset.Uniform(3000, 2, 6)
	dom := data.Domain()
	w := workload.Uniform(dom, workload.Defaults(30, 8))
	l := Build(data, allRows(3000), dom, w.Boxes(), Params{MinRows: 30})
	l.Route(data)
	// Average cost must be well below a full scan.
	ratio := l.ScanRatio(w.Boxes(), nil)
	if ratio > 0.5 {
		t.Errorf("scan ratio %v — greedy failed to improve over full scans", ratio)
	}
	if l.NumPartitions() < 5 {
		t.Errorf("expected multiple partitions, got %d", l.NumPartitions())
	}
}

// TestOverfitting reproduces Fig. 2: a Qd-tree built on QH degrades on a
// slightly shifted future workload.
func TestOverfitting(t *testing.T) {
	data := dataset.Uniform(3000, 2, 10)
	dom := data.Domain()
	hist := workload.Uniform(dom, workload.Defaults(25, 11))
	delta := 0.01 // 1% of the unit domain
	fut := workload.Future(hist, delta, 1, 12)

	l := Build(data, allRows(3000), dom, hist.Boxes(), Params{MinRows: 30})
	l.Route(data)
	histRatio := l.ScanRatio(hist.Boxes(), nil)
	futRatio := l.ScanRatio(fut.Boxes(), nil)
	if futRatio < histRatio {
		t.Errorf("future workload ratio %v unexpectedly below historical %v", futRatio, histRatio)
	}
	// The degradation should be substantial (the paper's motivating
	// observation) — future queries straddle partition boundaries.
	if futRatio < histRatio*1.2 {
		t.Logf("mild overfitting only: hist=%v fut=%v", histRatio, futRatio)
	}
}

func TestCutAdjacentFloats(t *testing.T) {
	c := CutAtLower(0, 1.5)
	if c.LeftHi >= c.RightLo {
		t.Error("LeftHi must be below RightLo")
	}
	if math.Nextafter(c.LeftHi, math.Inf(1)) != c.RightLo {
		t.Error("cut bounds must be adjacent floats")
	}
}
