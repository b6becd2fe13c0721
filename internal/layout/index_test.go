package layout

import (
	"math"
	"math/rand"
	"testing"

	"paw/internal/dataset"
	"paw/internal/geom"
)

// randomNode grows a random partition subtree over box: rect leaves, binary
// axis splits, wide rect fan-outs (wide enough to trigger the per-node child
// index), and multi-group nodes — disjoint rectangular holes carved out of
// the box with the irregular remainder as the last child, mirroring the
// builders' child ordering.
func randomNode(r *rand.Rand, box geom.Box, depth int) *Node {
	if depth <= 0 || r.Intn(5) == 0 {
		d := NewRect(box)
		return &Node{Desc: d, Part: &Partition{Desc: d}}
	}
	switch r.Intn(3) {
	case 0: // binary axis split
		dim := r.Intn(box.Dims())
		frac := 0.2 + 0.6*r.Float64()
		m := box.Lo[dim] + frac*(box.Hi[dim]-box.Lo[dim])
		left, right := box.Clone(), box.Clone()
		left.Hi[dim] = m
		right.Lo[dim] = m
		return &Node{Desc: NewRect(box), Children: []*Node{
			randomNode(r, left, depth-1),
			randomNode(r, right, depth-1),
		}}
	case 1: // wide fan-out: k strips along one dimension
		dim := r.Intn(box.Dims())
		k := childIndexMinFanout + r.Intn(5)
		n := &Node{Desc: NewRect(box)}
		w := (box.Hi[dim] - box.Lo[dim]) / float64(k)
		for i := 0; i < k; i++ {
			s := box.Clone()
			s.Lo[dim] = box.Lo[dim] + float64(i)*w
			s.Hi[dim] = box.Lo[dim] + float64(i+1)*w
			if i == k-1 {
				s.Hi[dim] = box.Hi[dim]
			}
			n.Children = append(n.Children, randomNode(r, s, depth-1))
		}
		return n
	default: // multi-group: disjoint holes + irregular remainder last
		cells := gridCells(box, 3)
		r.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
		nh := 1 + r.Intn(3)
		holes := make([]geom.Box, 0, nh)
		for _, c := range cells[:nh] {
			holes = append(holes, c.Scale(0.7+0.25*r.Float64()))
		}
		n := &Node{Desc: NewRect(box)}
		for _, h := range holes {
			n.Children = append(n.Children, randomNode(r, h, depth-1))
		}
		ir := NewIrregular(box, holes)
		n.Children = append(n.Children, &Node{Desc: ir, Part: &Partition{Desc: ir}})
		return n
	}
}

// gridCells cuts box into side×side... (per dimension) cells.
func gridCells(box geom.Box, side int) []geom.Box {
	cells := []geom.Box{box.Clone()}
	for d := 0; d < box.Dims(); d++ {
		var next []geom.Box
		for _, c := range cells {
			w := (c.Hi[d] - c.Lo[d]) / float64(side)
			for i := 0; i < side; i++ {
				s := c.Clone()
				s.Lo[d] = c.Lo[d] + float64(i)*w
				s.Hi[d] = c.Lo[d] + float64(i+1)*w
				next = append(next, s)
			}
		}
		cells = next
	}
	return cells
}

// randSubBox returns a random box inside m.
func randSubBox(r *rand.Rand, m geom.Box) geom.Box {
	lo := make(geom.Point, m.Dims())
	hi := make(geom.Point, m.Dims())
	for d := range lo {
		a := m.Lo[d] + r.Float64()*(m.Hi[d]-m.Lo[d])
		b := m.Lo[d] + r.Float64()*(m.Hi[d]-m.Lo[d])
		if a > b {
			a, b = b, a
		}
		lo[d], hi[d] = a, b
	}
	return geom.Box{Lo: lo, Hi: hi}
}

// randomLayout builds and seals a random routed layout mixing rect,
// irregular and precise descriptors, with nonzero partition sizes.
func randomLayout(r *rand.Rand) *Layout {
	dom := box2(0, 0, 100, 100)
	root := randomNode(r, dom, 3)
	l := Seal("rand", root, 8)
	for _, p := range l.Parts {
		p.FullRows = int64(1 + r.Intn(100))
		l.TotalBytes += p.Bytes()
		if r.Intn(4) == 0 {
			m := p.Desc.MBR()
			for j := r.Intn(3) + 1; j > 0; j-- {
				p.Precise = append(p.Precise, randSubBox(r, m))
			}
		}
	}
	return l
}

// randQueries mixes random boxes, exact partition MBRs (boundary contact),
// degenerate point boxes, the whole domain, and empty boxes.
func randQueries(r *rand.Rand, l *Layout, n int) []geom.Box {
	dom := box2(0, 0, 100, 100)
	out := make([]geom.Box, 0, n)
	for i := 0; i < n; i++ {
		switch r.Intn(6) {
		case 0: // exact descriptor MBR: maximal boundary contact
			p := l.Parts[r.Intn(len(l.Parts))]
			out = append(out, p.Desc.MBR().Clone())
		case 1: // degenerate point box
			pt := geom.Point{r.Float64() * 100, r.Float64() * 100}
			out = append(out, geom.Box{Lo: pt.Clone(), Hi: pt.Clone()})
		case 2: // whole domain
			out = append(out, dom.Clone())
		case 3: // empty (inverted)
			out = append(out, geom.Box{Lo: geom.Point{60, 60}, Hi: geom.Point{10, 10}})
		default:
			out = append(out, randSubBox(r, dom))
		}
	}
	return out
}

func randExtras(r *rand.Rand, l *Layout) Extras {
	var out Extras
	for i := r.Intn(4); i > 0; i-- {
		out = append(out, Extra{
			Box:      randSubBox(r, box2(0, 0, 100, 100)),
			FullRows: int64(1 + r.Intn(500)),
			RowBytes: l.RowBytes,
		})
	}
	return out
}

func equalIDs(a, b []ID) bool {
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

// diffRouting asserts every indexed query path agrees exactly with its
// retained linear reference on the given layout. Shared by the property test
// and the fuzz target.
func diffRouting(t *testing.T, r *rand.Rand, l *Layout) {
	t.Helper()
	extras := randExtras(r, l)
	for _, q := range randQueries(r, l, 60) {
		a, b := l.PartitionsFor(q), l.PartitionsForLinear(q)
		if !equalIDs(a, b) {
			t.Fatalf("PartitionsFor(%v): indexed %v, linear %v", q, a, b)
		}
		if ci, cl := l.QueryCost(q, nil), l.QueryCostLinear(q, nil); ci != cl {
			t.Fatalf("QueryCost(%v): indexed %d, linear %d", q, ci, cl)
		}
		if ci, cl := l.QueryCost(q, extras), l.QueryCostLinear(q, extras); ci != cl {
			t.Fatalf("QueryCost(%v, extras): indexed %d, linear %d", q, ci, cl)
		}
	}
	for i := 0; i < 120; i++ {
		pt := geom.Point{r.Float64()*104 - 2, r.Float64()*104 - 2}
		if i%3 == 0 && len(l.Parts) > 0 {
			// Points on descriptor boundaries: routing ties must resolve
			// identically (first matching child wins).
			m := l.Parts[r.Intn(len(l.Parts))].Desc.MBR()
			pt = geom.Point{m.Lo[0], m.Hi[1]}
		}
		a, b := l.Locate(pt), l.LocateLinear(pt)
		if a != b {
			t.Fatalf("Locate(%v): indexed %v, linear %v", pt, a, b)
		}
	}
	diffBulkRouting(t, r, l)
}

// diffBulkRouting asserts that bulk routing, which deals row blocks down the
// tree by derived per-split checks, places every point where LocateLinear
// does: points on every node's bounds and the floats either side of them,
// points outside the domain, and NaN and ±Inf coordinates. It routes
// datasets of a block less one row, a block, a block and a row, three blocks
// and seven rows and every point, on 1 to 4 workers, through RouteRows (each
// list ascending; FullRows, Unrouted and TotalBytes as LocateLinear counts
// them) and RouteParallel. Blocks with a point outside the root's box and
// blocks without are both dealt.
func diffBulkRouting(t *testing.T, r *rand.Rand, l *Layout) {
	t.Helper()
	var xs, ys []float64
	edges := func(lo, hi float64) []float64 {
		return []float64{lo, hi, math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1)), (lo + hi) / 2, math.NaN()}
	}
	l.Root.Walk(func(n *Node) {
		m := n.Desc.MBR()
		for _, x := range edges(m.Lo[0], m.Hi[0]) {
			for _, y := range edges(m.Lo[1], m.Hi[1]) {
				xs, ys = append(xs, x), append(ys, y)
			}
		}
	})
	nan, inf := math.NaN(), math.Inf(1)
	xs, ys = append(xs, nan, nan, 50, -1e9, 1e9, inf, -inf, 50, 50, inf), append(ys, nan, 50, nan, 50, 50, 50, 50, inf, -inf, nan)
	// Then points around the domain, and a block and more of points in the
	// root's box only, whose blocks take the root's children on their
	// derived checks.
	for len(xs) < 2*routeBlock {
		xs, ys = append(xs, r.Float64()*110-5), append(ys, r.Float64()*110-5)
	}
	for m := l.Root.Desc.MBR(); len(xs) < 3*routeBlock+7; {
		xs = append(xs, m.Lo[0]+r.Float64()*(m.Hi[0]-m.Lo[0]))
		ys = append(ys, m.Lo[1]+r.Float64()*(m.Hi[1]-m.Lo[1]))
	}
	for _, n := range []int{routeBlock - 1, routeBlock, routeBlock + 1, 3*routeBlock + 7, len(xs)} {
		data := dataset.MustNew([]string{"x", "y"}, [][]float64{xs[:n], ys[:n]})
		want := make([]ID, n)
		wantRows := make([]int64, len(l.Parts))
		var unrouted int64
		for i := range want {
			want[i] = -1
			if p := l.LocateLinear(geom.Point{xs[i], ys[i]}); p != nil {
				want[i] = p.ID
				wantRows[p.ID]++
			} else {
				unrouted++
			}
		}
		for workers := 1; workers <= 4; workers++ {
			byPart := l.RouteRows(data, workers)
			for id, rows := range byPart {
				for k, i := range rows {
					if want[i] != ID(id) || k > 0 && rows[k-1] >= i {
						t.Fatalf("n=%d workers=%d: point (%v, %v) in partition %d at %d of %d, LocateLinear %d", n, workers, xs[i], ys[i], id, k, len(rows), want[i])
					}
				}
				if got := int64(len(rows)); got != wantRows[id] || l.Parts[id].FullRows != got {
					t.Fatalf("n=%d workers=%d: partition %d lists %d rows, FullRows %d, LocateLinear %d", n, workers, id, got, l.Parts[id].FullRows, wantRows[id])
				}
			}
			if l.Unrouted != unrouted || l.TotalBytes != int64(n)*l.RowBytes {
				t.Fatalf("n=%d workers=%d: Unrouted %d, TotalBytes %d; want %d, %d", n, workers, l.Unrouted, l.TotalBytes, unrouted, int64(n)*l.RowBytes)
			}
			l.RouteParallel(data, workers)
			for id, p := range l.Parts {
				if p.FullRows != wantRows[id] {
					t.Fatalf("n=%d workers=%d: RouteParallel counts %d rows in partition %d, want %d", n, workers, p.FullRows, id, wantRows[id])
				}
			}
		}
	}
}

func TestIndexedRoutingMatchesLinear(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		l := randomLayout(r)
		diffRouting(t, r, l)
	}
}

func TestBatchMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	l := randomLayout(r)
	queries := randQueries(r, l, 100)
	extras := randExtras(r, l)
	want := make([][]ID, len(queries))
	for i, q := range queries {
		want[i] = l.PartitionsFor(q)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		got := l.PartitionsForBatch(queries, workers)
		for i := range queries {
			if !equalIDs(got[i], want[i]) {
				t.Fatalf("workers=%d query %d: %v vs %v", workers, i, got[i], want[i])
			}
		}
		costs := l.QueryCosts(queries, extras, workers)
		for i, q := range queries {
			if want := l.QueryCost(q, extras); costs[i] != want {
				t.Fatalf("workers=%d QueryCosts[%d] = %d, want %d", workers, i, costs[i], want)
			}
		}
	}
}

func TestAppendPartitionsForAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	l := randomLayout(r)
	q := box2(10, 10, 70, 70)
	dst := make([]ID, 0, len(l.Parts))
	for i := 0; i < 16; i++ { // warm the candidate pool and grow dst
		dst = l.AppendPartitionsFor(dst[:0], q)
	}
	avg := testing.AllocsPerRun(200, func() {
		dst = l.AppendPartitionsFor(dst[:0], q)
	})
	if avg > 0.5 {
		t.Errorf("AppendPartitionsFor allocates %.1f objects/op, want 0", avg)
	}
}

func TestCostRowsIndexedMatchesLinear(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	l := randomLayout(r)
	var pieces []Piece
	for _, p := range l.Parts {
		pieces = append(pieces, Piece{Desc: p.Desc, Rows: 1 + r.Intn(50)})
	}
	// Enough queries to force the indexed path regardless of layout size.
	n := costRowsIndexMinWork/len(pieces) + 64
	queries := randQueries(r, l, n)
	if len(pieces)*len(queries) < costRowsIndexMinWork {
		t.Fatalf("test setup too small to exercise the indexed path")
	}
	if got, want := CostRows(pieces, queries), costRowsLinear(pieces, queries); got != want {
		t.Fatalf("CostRows indexed %d, linear %d", got, want)
	}
	// Small instances take the linear path; sanity-check the dispatch.
	small := queries[:2]
	if got, want := CostRows(pieces[:2], small), costRowsLinear(pieces[:2], small); got != want {
		t.Fatalf("CostRows small %d, linear %d", got, want)
	}
}

// TestTinyLayoutsRoute: the routing index serves the smallest layouts Seal
// makes — one leaf, and a root with no partition at all, whose index holds no
// box.
func TestTinyLayoutsRoute(t *testing.T) {
	d := NewRect(box2(0, 0, 10, 10))
	part := &Partition{Desc: d, FullRows: 5}
	one := Seal("manual", &Node{Desc: d, Part: part}, 8)
	q := box2(1, 1, 2, 2)
	if got := one.PartitionsFor(q); !equalIDs(got, []ID{0}) {
		t.Fatalf("one leaf: PartitionsFor = %v", got)
	}
	if got := one.QueryCost(q, nil); got != part.Bytes() {
		t.Fatalf("one leaf: QueryCost = %d, want %d", got, part.Bytes())
	}
	if got := one.Locate(geom.Point{1, 1}); got != part {
		t.Fatalf("one leaf: Locate = %v", got)
	}

	empty := Seal("manual", &Node{Desc: d}, 8)
	if n := empty.NumPartitions(); n != 0 {
		t.Fatalf("empty: %d partitions", n)
	}
	if got := empty.PartitionsFor(q); len(got) != 0 {
		t.Fatalf("empty: PartitionsFor = %v", got)
	}
	if got := empty.QueryCost(q, nil); got != 0 {
		t.Fatalf("empty: QueryCost = %d", got)
	}
	if got := empty.Locate(geom.Point{1, 1}); got != nil {
		t.Fatalf("empty: Locate = %v", got)
	}
}

// TestBulkRoutingStripChildren: Rect children that each differ from their
// Rect parent on one dimension, with gaps between them and an irregular
// remainder after them, so that both of a strip's bounds decide where a point
// goes. Bulk routing must agree with LocateLinear on them, and must route a
// descriptor edited after Seal as it now is.
func TestBulkRoutingStripChildren(t *testing.T) {
	leaf := func(d Descriptor) *Node { return &Node{Desc: d, Part: &Partition{Desc: d}} }
	inner := box2(10, 10, 90, 90)
	strips := []geom.Box{box2(20, 10, 30, 90), box2(50, 10, 60, 90), box2(10, 40, 90, 45)}
	mid := &Node{Desc: NewRect(inner)}
	for _, s := range strips {
		mid.Children = append(mid.Children, leaf(NewRect(s)))
	}
	mid.Children = append(mid.Children, leaf(NewIrregular(inner, strips)))
	root := &Node{Desc: NewRect(box2(0, 0, 100, 100)), Children: []*Node{mid, leaf(NewRect(box2(0, 0, 100, 100)))}}
	l := Seal("strips", root, 8)
	r := rand.New(rand.NewSource(3))
	diffBulkRouting(t, r, l)
	mid.Children[1].Desc = NewRect(box2(55, 10, 60, 90))
	diffBulkRouting(t, r, l)
}

// TestBulkRoutingAxisSplitGap: the second half of an axis split is taken
// without a test only when every point its sibling rejects lies in it — the
// two share a bound, or it starts at the float after its sibling's — not
// when a gap lies between them, in either order of the halves.
func TestBulkRoutingAxisSplitGap(t *testing.T) {
	dom := box2(0, 0, 100, 100)
	half := func(in geom.Box, dim int, lo, hi float64) geom.Box {
		b := in.Clone()
		b.Lo[dim], b.Hi[dim] = lo, hi
		return b
	}
	split := func(box geom.Box, kids ...geom.Box) *Node {
		n := &Node{Desc: NewRect(box)}
		for _, k := range kids {
			n.Children = append(n.Children, &Node{Desc: NewRect(k), Part: &Partition{Desc: NewRect(k)}})
		}
		return n
	}
	a, b := half(dom, 0, 0, 50), half(dom, 0, 50.5, 100)
	root := &Node{Desc: NewRect(dom), Children: []*Node{
		split(a, half(a, 1, 0, 30), half(a, 1, math.Nextafter(30, 100), 100)),
		split(b, half(b, 1, 60, 100), half(b, 1, 0, 59.75)),
	}}
	l := Seal("gaps", root, 8)
	taken := 0
	for _, sc := range l.deriveChecks() {
		if sc.dim == checkBox && len(sc.box) == 0 {
			taken++
		}
	}
	if taken != 1 {
		t.Fatalf("%d halves taken without a test, want 1 (the half-open one)", taken)
	}
	diffBulkRouting(t, rand.New(rand.NewSource(9)), l)
}

// TestBulkRoutingRemainder: an irregular remainder whose region is its Rect
// parent's box minus exactly the boxes of the siblings before it is taken
// without testing its holes, at the root and below it; bulk routing must
// still agree with LocateLinear on hole faces, NaN and ±Inf. Once an edit
// breaks that shape — a hole that is not a sibling's box, a sibling box that
// is not a hole, an outer box that is not the parent's, an inverted parent —
// the remainder must be tested by its region again.
func TestBulkRoutingRemainder(t *testing.T) {
	leaf := func(d Descriptor) *Node { return &Node{Desc: d, Part: &Partition{Desc: d}} }
	dom, a, b, h := box2(0, 0, 100, 100), box2(10, 10, 30, 30), box2(50, 40, 90, 60), box2(15, 15, 20, 20)
	inner := &Node{Desc: NewRect(a), Children: []*Node{leaf(NewRect(h)), leaf(NewIrregular(a, []geom.Box{h}))}}
	rest := leaf(NewIrregular(dom, []geom.Box{a, b}))
	root := &Node{Desc: NewRect(dom), Children: []*Node{inner, leaf(NewRect(b)), rest}}
	l := Seal("remainder", root, 8)
	r := rand.New(rand.NewSource(5))
	rests := func() int {
		n := 0
		for _, sc := range l.deriveChecks() {
			if sc.dim == checkRest {
				n++
			}
		}
		return n
	}
	if got := rests(); got != 2 {
		t.Fatalf("%d remainders derived, want 2 (the root's and the inner node's)", got)
	}
	diffBulkRouting(t, r, l)

	for _, e := range []struct {
		name string
		edit func() (undo func())
	}{
		{"hole not a sibling", func() func() {
			rest.Desc = NewIrregular(dom, []geom.Box{a, box2(60, 70, 70, 80)})
			return func() { rest.Desc = NewIrregular(dom, []geom.Box{a, b}) }
		}},
		{"sibling not a hole", func() func() {
			root.Children[1].Desc = NewRect(box2(55, 40, 90, 60))
			return func() { root.Children[1].Desc = NewRect(b) }
		}},
		{"outer not the parent", func() func() {
			rest.Desc = NewIrregular(box2(0, 0, 100, 90), []geom.Box{a, b})
			return func() { rest.Desc = NewIrregular(dom, []geom.Box{a, b}) }
		}},
		{"inverted parent", func() func() {
			flip := box2(10, 30, 30, 10)
			inner.Desc = NewRect(flip)
			inner.Children[1].Desc = NewIrregular(flip, []geom.Box{h})
			rest.Desc = NewIrregular(dom, []geom.Box{flip, b})
			return func() {
				inner.Desc = NewRect(a)
				inner.Children[1].Desc = NewIrregular(a, []geom.Box{h})
				rest.Desc = NewIrregular(dom, []geom.Box{a, b})
			}
		}},
	} {
		name, undo := e.name, e.edit()
		if got := rests(); got != 1 {
			t.Fatalf("%s: %d remainders derived, want 1", name, got)
		}
		diffBulkRouting(t, r, l)
		undo()
	}
}
