package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"paw/internal/dataset"
	"paw/internal/geom"
	"paw/internal/layout"
	"paw/internal/qdtree"
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

func TestGroupIntersecting(t *testing.T) {
	qs := []geom.Box{
		box2(0, 0, 2, 2),
		box2(1, 1, 3, 3), // intersects 0
		box2(5, 5, 6, 6),
		box2(5.5, 5.5, 7, 7), // intersects 2
		box2(9, 9, 10, 10),
	}
	groups := groupIntersecting(qs)
	if len(groups) != 3 {
		t.Fatalf("groups = %d, want 3", len(groups))
	}
	sizes := []int{len(groups[0]), len(groups[1]), len(groups[2])}
	if sizes[0] != 2 || sizes[1] != 2 || sizes[2] != 1 {
		t.Errorf("group sizes = %v", sizes)
	}
	// Transitivity: a chain a-b, b-c merges into one group.
	chain := []geom.Box{box2(0, 0, 2, 2), box2(1, 1, 4, 4), box2(3, 3, 5, 5)}
	groups = groupIntersecting(chain)
	if len(groups) != 1 || len(groups[0]) != 3 {
		t.Errorf("chain groups = %v", groups)
	}
	if len(groupIntersecting(nil)) != 0 {
		t.Error("no queries, no groups")
	}
}

func TestBuildBasicInvariants(t *testing.T) {
	data := dataset.Uniform(4000, 2, 1)
	dom := data.Domain()
	hist := workload.Uniform(dom, workload.Defaults(20, 2))
	p := Params{MinRows: 50, Delta: 0.01}
	l := Build(data, allRows(4000), dom, hist, p)
	if l.Method != "paw" {
		t.Errorf("method = %q", l.Method)
	}
	l.Route(data)
	if err := l.Validate(data, int64(p.MinRows)); err != nil {
		t.Fatal(err)
	}
	if l.NumPartitions() < 2 {
		t.Errorf("PAW produced %d partitions", l.NumPartitions())
	}
	// Must contain at least one irregular partition on this workload.
	irr := 0
	for _, part := range l.Parts {
		if part.Desc.Kind() == layout.KindIrregular {
			irr++
		}
	}
	if irr == 0 {
		t.Error("expected at least one irregular partition")
	}
	// Costs dominate the lower bound.
	fut := workload.Future(hist, 0.01, 1, 3)
	if err := l.CheckCostDominatesLB(data, fut.Boxes()); err != nil {
		t.Error(err)
	}
}

// TestRobustToFutureWorkload is the paper's headline claim (Figs. 13–14):
// PAW built with δ stays efficient on δ-similar future workloads, while the
// Qd-tree degrades.
func TestRobustToFutureWorkload(t *testing.T) {
	data := dataset.Uniform(6000, 2, 4)
	dom := data.Domain()
	hist := workload.Uniform(dom, workload.Defaults(25, 5))
	const delta = 0.01
	fut := workload.Future(hist, delta, 1, 6)

	paw := Build(data, allRows(6000), dom, hist, Params{MinRows: 60, Delta: delta})
	paw.Route(data)
	qd := qdtree.Build(data, allRows(6000), dom, hist.Boxes(), qdtree.Params{MinRows: 60})
	qd.Route(data)

	pawRatio := paw.ScanRatio(fut.Boxes(), nil)
	qdRatio := qd.ScanRatio(fut.Boxes(), nil)
	if pawRatio >= qdRatio {
		t.Errorf("PAW ratio %v not below Qd-tree ratio %v on the future workload", pawRatio, qdRatio)
	}
	t.Logf("future workload scan ratio: PAW=%.4f Qd-tree=%.4f (%.1fx)", pawRatio, qdRatio, qdRatio/pawRatio)
}

// TestFutureQueriesHitSingleGroup checks the §VI-B observation: each future
// query is highly likely to fall into a single grouped partition.
func TestFutureQueriesHitSingleGroup(t *testing.T) {
	data := dataset.Uniform(6000, 2, 7)
	dom := data.Domain()
	// Well-separated queries so extension keeps groups disjoint.
	hist := workload.Workload{
		{Box: box2(0.1, 0.1, 0.2, 0.2)},
		{Box: box2(0.5, 0.5, 0.6, 0.6)},
		{Box: box2(0.8, 0.1, 0.9, 0.2)},
		{Box: box2(0.1, 0.8, 0.2, 0.9)},
	}
	const delta = 0.01
	l := Build(data, allRows(6000), dom, hist, Params{MinRows: 50, Delta: delta})
	l.Route(data)
	fut := workload.Future(hist, delta, 5, 8)
	single := 0
	for _, q := range fut {
		if len(l.PartitionsFor(q.Box)) == 1 {
			single++
		}
	}
	if single < len(fut)*9/10 {
		t.Errorf("only %d/%d future queries hit a single partition", single, len(fut))
	}
}

func TestDeltaZeroSpecialCase(t *testing.T) {
	data := dataset.Uniform(4000, 2, 9)
	dom := data.Domain()
	hist := workload.Uniform(dom, workload.Defaults(15, 10))
	l := Build(data, allRows(4000), dom, hist, Params{MinRows: 50, Delta: 0})
	l.Route(data)
	if err := l.Validate(data, 50); err != nil {
		t.Fatal(err)
	}
	// On the historical workload itself PAW must beat a full scan hugely.
	if r := l.ScanRatio(hist.Boxes(), nil); r > 0.3 {
		t.Errorf("scan ratio %v too high for δ=0", r)
	}
}

func TestDisableMultiGroup(t *testing.T) {
	data := dataset.Uniform(4000, 2, 11)
	dom := data.Domain()
	hist := workload.Uniform(dom, workload.Defaults(20, 12))
	l := Build(data, allRows(4000), dom, hist, Params{MinRows: 50, Delta: 0.01, DisableMultiGroup: true})
	for _, p := range l.Parts {
		if p.Desc.Kind() == layout.KindIrregular {
			t.Fatal("DisableMultiGroup must not produce irregular partitions")
		}
	}
	l.Route(data)
	if err := l.Validate(data, 50); err != nil {
		t.Error(err)
	}
}

func TestDataAwareRefine(t *testing.T) {
	data := dataset.Uniform(8000, 2, 13)
	dom := data.Domain()
	// One focused query leaves most of the space query-free.
	hist := workload.Workload{{Box: box2(0.4, 0.4, 0.5, 0.5)}}
	base := Build(data, allRows(8000), dom, hist, Params{MinRows: 50, Delta: 0.01})
	refined := Build(data, allRows(8000), dom, hist, Params{MinRows: 50, Delta: 0.01, DataAwareRefine: true})
	if refined.NumPartitions() <= base.NumPartitions() {
		t.Errorf("refined layout has %d partitions, base %d — refinement did nothing",
			refined.NumPartitions(), base.NumPartitions())
	}
	refined.Route(data)
	if err := refined.Validate(data, 50); err != nil {
		t.Fatal(err)
	}
	// Random (unpredictable) queries must be much cheaper on the refined
	// layout.
	rnd := workload.Uniform(dom, workload.Defaults(50, 14))
	base.Route(data)
	if br, rr := base.ScanRatio(rnd.Boxes(), nil), refined.ScanRatio(rnd.Boxes(), nil); rr >= br {
		t.Errorf("refined ratio %v not below base %v on random queries", rr, br)
	}
}

func TestExpandToMin(t *testing.T) {
	data := dataset.Uniform(1000, 2, 15)
	b := newBuilder(data, Params{MinRows: 100}.withDefaults(), nil, buildMetrics{})
	dom := data.Domain()
	// A tiny query region holds almost no rows; expansion must reach 100.
	tiny := box2(0.50, 0.50, 0.51, 0.51)
	grown, ok := b.expandToMin(dom, allRows(1000), tiny, b.scratchFor(b.pool.RootSlot()))
	if !ok {
		t.Fatal("expansion failed")
	}
	if n := data.CountInBox(grown, nil); n < 100 {
		t.Errorf("expanded box holds %d rows, want >= 100", n)
	}
	if !grown.ContainsBox(tiny.Clip(dom)) {
		t.Error("expansion must contain the original region")
	}
	// Center must be preserved.
	c, g := tiny.Center(), grown.Center()
	for d := range c {
		if diff := c[d] - g[d]; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("expansion moved the center: %v -> %v", c, g)
		}
	}
}

func TestExpandToMinDegenerate(t *testing.T) {
	data := dataset.Uniform(1000, 2, 16)
	b := newBuilder(data, Params{MinRows: 50}.withDefaults(), nil, buildMetrics{})
	dom := data.Domain()
	// Zero-extent query (a point lookup): radius 0 in both dims.
	pointQ := box2(0.5, 0.5, 0.5, 0.5)
	grown, ok := b.expandToMin(dom, allRows(1000), pointQ, b.scratchFor(b.pool.RootSlot()))
	if !ok {
		t.Fatal("degenerate expansion failed")
	}
	if n := data.CountInBox(grown, nil); n < 50 {
		t.Errorf("expanded degenerate box holds %d rows", n)
	}
}

func TestExpandToMinInsufficientRows(t *testing.T) {
	data := dataset.Uniform(30, 2, 17)
	b := newBuilder(data, Params{MinRows: 50}.withDefaults(), nil, buildMetrics{})
	dom := data.Domain()
	if _, ok := b.expandToMin(dom, allRows(30), box2(0.4, 0.4, 0.6, 0.6), b.scratchFor(b.pool.RootSlot())); ok {
		t.Error("expansion must fail when the parent has fewer than MinRows rows")
	}
}

func TestSmallInputsStayWhole(t *testing.T) {
	data := dataset.Uniform(80, 2, 18)
	dom := data.Domain()
	hist := workload.Uniform(dom, workload.Defaults(5, 19))
	l := Build(data, allRows(80), dom, hist, Params{MinRows: 50, Delta: 0.01})
	if l.NumPartitions() != 1 {
		t.Errorf("partitions = %d, want 1 (below 2·bmin)", l.NumPartitions())
	}
}

func TestParamDefaults(t *testing.T) {
	p := Params{}.withDefaults()
	if p.MinRows != 1 || p.Alpha != 8 {
		t.Errorf("defaults = %+v", p)
	}
	p = Params{Alpha: 4, MinRows: 10}.withDefaults()
	if p.Alpha != 4 || p.MinRows != 10 {
		t.Errorf("explicit params overridden: %+v", p)
	}
}

// TestLemma1Dominance verifies the layout-level consequence of Lemma 1: the
// average cost of any δ-similar future workload never exceeds the average
// cost of the extended worst-case workload Q*F.
func TestLemma1Dominance(t *testing.T) {
	data := dataset.Uniform(5000, 2, 20)
	dom := data.Domain()
	hist := workload.Uniform(dom, workload.Defaults(20, 21))
	const delta = 0.02
	l := Build(data, allRows(5000), dom, hist, Params{MinRows: 50, Delta: delta})
	l.Route(data)
	ext := hist.Extend(delta)
	worst := l.AvgCost(ext.Boxes(), nil)
	for seed := int64(0); seed < 5; seed++ {
		fut := workload.Future(hist, delta, 2, seed)
		if got := l.AvgCost(fut.Boxes(), nil); got > worst+1e-6 {
			t.Errorf("future workload avg cost %v exceeds worst-case %v (seed %d)", got, worst, seed)
		}
	}
}

func TestBuildOnSampleRoutesFull(t *testing.T) {
	data := dataset.Uniform(20000, 2, 22)
	dom := data.Domain()
	sample := data.Sample(2000, 23)
	hist := workload.Uniform(dom, workload.Defaults(20, 24))
	l := Build(data, sample, dom, hist, Params{MinRows: 20, Delta: 0.01})
	l.Route(data)
	if l.Unrouted != 0 {
		t.Fatalf("unrouted = %d", l.Unrouted)
	}
	var sum int64
	for _, p := range l.Parts {
		sum += p.FullRows
	}
	if sum != 20000 {
		t.Errorf("routed %d rows", sum)
	}
}

func TestSkewedWorkload(t *testing.T) {
	data := dataset.OSMLike(8000, 10, 25)
	dom := data.Domain()
	pgen := workload.Defaults(30, 26)
	hist := workload.Skewed(dom, pgen)
	l := Build(data, allRows(8000), dom, hist, Params{MinRows: 50, Delta: (dom.Hi[0] - dom.Lo[0]) * 0.01})
	l.Route(data)
	if err := l.Validate(data, 50); err != nil {
		t.Fatal(err)
	}
	fut := workload.Future(hist, (dom.Hi[0]-dom.Lo[0])*0.01, 1, 27)
	if err := l.CheckCostDominatesLB(data, fut.Boxes()); err != nil {
		t.Error(err)
	}
}

// expandRankAll is expandToMin as it was before rows were filtered: it ranks
// every row and takes the MinRows-th smallest rank by sorting. It is the
// reference TestExpandToMinMatchesRankAll holds the filtered heap to.
func expandRankAll(b *builder, box geom.Box, rows []int, gp geom.Box) (geom.Box, bool) {
	gp = gp.Clip(box)
	inside := 0
	for _, r := range rows {
		if rowIn(b.cols, r, gp) {
			inside++
		}
	}
	if inside >= b.p.MinRows {
		return gp, true
	}
	if len(rows) < b.p.MinRows {
		return gp, false
	}
	c, rad := gp.Center(), gp.Radius()
	for d := range rad {
		if ext := box.Hi[d] - box.Lo[d]; rad[d] == 0 && ext != 0 {
			rad[d] = 1e-9 * ext
		}
	}
	fs := make([]float64, len(rows))
	for i, r := range rows {
		for d := range c {
			num := math.Abs(b.cols[d][r] - c[d])
			if rad[d] > 0 {
				if q := num / rad[d]; q > fs[i] { // a NaN distance ranks nothing
					fs[i] = q
				}
			} else if num > 0 {
				fs[i] = 1e308
			}
		}
	}
	sort.Float64s(fs)
	factor := max(fs[b.p.MinRows-1], 1)
	if factor >= 1e308 {
		return gp, false
	}
	grown := geom.Box{Lo: make(geom.Point, len(c)), Hi: make(geom.Point, len(c))}
	for d := range c {
		grown.Lo[d], grown.Hi[d] = c[d]-factor*rad[d], c[d]+factor*rad[d]
	}
	return grown.Clip(box), true
}

// TestExpandToMinMatchesRankAll holds expandToMin, which keeps the MinRows
// smallest ranks in a heap and skips a row without dividing once one of its
// distances alone rules it out, to ranking every row, bit for bit: on
// continuous data, on a coarse grid (ties at the MinRows-th rank), with
// zero-radius dimensions, in a parent that is degenerate on a dimension (with
// rows on and off it), with NaN coordinates, for a group outside the parent
// (its clip is an empty box of negative radius), and at MinRows == len(rows).
func TestExpandToMinMatchesRankAll(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	const n = 3000
	for trial := 0; trial < 400; trial++ {
		dims := 2 + trial%3
		cols := make([][]float64, dims)
		for d := range cols {
			cols[d] = make([]float64, n)
			for i := range cols[d] {
				switch trial % 5 {
				case 1: // a coarse grid: many rows share a rank
					cols[d][i] = float64(rng.Intn(5)) / 4
				default:
					cols[d][i] = rng.Float64()
				}
			}
		}
		box := geom.Box{Lo: make(geom.Point, dims), Hi: make(geom.Point, dims)}
		for d := range box.Hi {
			box.Hi[d] = 1
		}
		switch trial % 5 {
		case 2: // NaN coordinates
			for i := 0; i < n/10; i++ {
				cols[rng.Intn(dims)][rng.Intn(n)] = math.NaN()
			}
		case 3: // a parent degenerate on dimension 0; some rows lie off it
			box.Lo[0], box.Hi[0] = 0.5, 0.5
			for i := range cols[0] {
				if cols[0][i] = 0.5; trial%10 == 3 && rng.Intn(50) == 0 {
					cols[0][i] = rng.Float64()
				}
			}
		case 4: // rows at the center of the empty box a disjoint group clips to
			for i := 0; i < 40; i++ {
				r := rng.Intn(n)
				for d := range cols {
					cols[d][r] = 0.5
				}
			}
		}
		names := make([]string, dims)
		for d := range names {
			names[d] = string(rune('a' + d))
		}
		data := dataset.MustNew(names, cols)
		rows := allRows(n)[:n/2+rng.Intn(n/2+1)]
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		minRows := 1 + rng.Intn(len(rows))
		if trial%7 == 0 {
			minRows = len(rows)
		}
		gp := geom.Box{Lo: make(geom.Point, dims), Hi: make(geom.Point, dims)}
		for d := range gp.Lo {
			c, r := rng.Float64(), rng.Float64()*0.05
			if trial%4 == 0 && d == dims-1 {
				r = 0 // a zero-radius dimension
			}
			gp.Lo[d], gp.Hi[d] = c-r, c+r
			if trial%5 == 4 && trial%10 == 9 { // a group outside the parent
				gp.Lo[d], gp.Hi[d] = c+2-r, c+2+r
			}
		}
		b := newBuilder(data, Params{MinRows: minRows}.withDefaults(), nil, buildMetrics{})
		got, gotOK := b.expandToMin(box, rows, gp, b.scratchFor(b.pool.RootSlot()))
		want, wantOK := expandRankAll(b, box, rows, gp)
		same := gotOK == wantOK && len(got.Lo) == len(want.Lo)
		for d := 0; same && d < len(got.Lo); d++ {
			same = math.Float64bits(got.Lo[d]) == math.Float64bits(want.Lo[d]) &&
				math.Float64bits(got.Hi[d]) == math.Float64bits(want.Hi[d])
		}
		if !same {
			t.Fatalf("trial %d (dims %d, %d rows, MinRows %d, gp %v): got %v %v, want %v %v",
				trial, dims, len(rows), minRows, gp, got, gotOK, want, wantOK)
		}
	}
}
