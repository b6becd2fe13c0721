package kdtree

import (
	"testing"

	"paw/internal/dataset"
	"paw/internal/geom"
	"paw/internal/layout"
	"paw/internal/parbuild"
)

func allRows(n int) []int {
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	return rows
}

func TestBuildBasic(t *testing.T) {
	data := dataset.Uniform(1000, 2, 1)
	l := Build(data, allRows(1000), data.Domain(), Params{MinRows: 50})
	if l.Method != "kd-tree" {
		t.Errorf("method = %q", l.Method)
	}
	// 1000 rows in [50,100) chunks → between 11 and 20 partitions.
	if got := l.NumPartitions(); got < 11 || got > 20 {
		t.Errorf("partitions = %d", got)
	}
	l.Route(data)
	if err := l.Validate(data, 50); err != nil {
		t.Error(err)
	}
	// Every leaf must satisfy [bmin, 2bmin) on the sample, here every row.
	for _, p := range l.Parts {
		if p.FullRows >= 100 {
			t.Errorf("partition %d has %d sample rows, want [50, 100)", p.ID, p.FullRows)
		}
	}
}

func TestBuildTiny(t *testing.T) {
	data := dataset.Uniform(10, 2, 2)
	l := Build(data, allRows(10), data.Domain(), Params{MinRows: 20})
	if l.NumPartitions() != 1 {
		t.Errorf("tiny dataset must stay one partition, got %d", l.NumPartitions())
	}
	// MinRows < 1 is normalised.
	l = Build(data, allRows(10), data.Domain(), Params{MinRows: 0})
	l.Route(data)
	if l.Unrouted != 0 {
		t.Errorf("unrouted = %d", l.Unrouted)
	}
}

func TestBuildDuplicateValues(t *testing.T) {
	// All records identical on dim 0, varying on dim 1: the builder must
	// skip the degenerate dimension and still split on dim 1.
	n := 200
	c0 := make([]float64, n)
	c1 := make([]float64, n)
	for i := range c1 {
		c0[i] = 5
		c1[i] = float64(i)
	}
	data := dataset.MustNew([]string{"x", "y"}, [][]float64{c0, c1})
	l := Build(data, allRows(n), data.Domain(), Params{MinRows: 25})
	if l.NumPartitions() < 4 {
		t.Errorf("expected splits on the non-degenerate dimension, got %d partitions", l.NumPartitions())
	}
	l.Route(data)
	if err := l.Validate(data, 25); err != nil {
		t.Error(err)
	}
}

func TestBuildAllIdentical(t *testing.T) {
	// Fully degenerate data cannot be split at all.
	n := 100
	c := make([]float64, n)
	for i := range c {
		c[i] = 7
	}
	data := dataset.MustNew([]string{"x"}, [][]float64{c})
	l := Build(data, allRows(n), data.Domain(), Params{MinRows: 10})
	if l.NumPartitions() != 1 {
		t.Errorf("identical data must stay one partition, got %d", l.NumPartitions())
	}
}

func TestChildrenDoNotOverlap(t *testing.T) {
	data := dataset.Uniform(500, 3, 3)
	l := Build(data, allRows(500), data.Domain(), Params{MinRows: 30})
	parts := l.Parts
	for i := range parts {
		for j := i + 1; j < len(parts); j++ {
			bi := parts[i].Desc.MBR()
			bj := parts[j].Desc.MBR()
			if inter, ok := bi.Intersection(bj); ok && inter.Volume() > 0 {
				t.Fatalf("partitions %d and %d overlap: %v ∩ %v", i, j, bi, bj)
			}
		}
	}
}

func TestRouteMatchesSampleAssignment(t *testing.T) {
	// The rows every leaf was built with, here and through RefineLeaf, must
	// be the sample rows routing sends it, in order.
	data := dataset.Uniform(4000, 3, 9)
	sample := data.Sample(1500, 10)
	sampled, local := data.Gather(sample, 1)
	leaves := &layout.LeafRows{}
	pool := parbuild.New(2)
	b := newBuilder(sampled, 40, pool, leaves)
	l := layout.Seal("kd-tree", b.split(data.Domain(), nil, local, 0, pool.RootSlot()), data.RowBytes())
	if err := leaves.MatchRouting(l, sampled); err != nil {
		t.Error(err)
	}
	// An irregular region, the domain minus two holes: every cell must keep
	// the irregular semantics, and hold the region's rows routing sends it.
	dom := data.Domain()
	hole := func(lo, hi float64) geom.Box {
		b := dom.Clone()
		for d := range b.Lo {
			b.Lo[d], b.Hi[d] = dom.Lo[d]+lo*(dom.Hi[d]-dom.Lo[d]), dom.Lo[d]+hi*(dom.Hi[d]-dom.Lo[d])
		}
		return b
	}
	ir := layout.NewIrregular(dom, []geom.Box{hole(0, 0.3), hole(0.5, 0.8)})
	var rows []int
	for r := range local {
		if ir.Contains(sampled.Point(r)) {
			rows = append(rows, r)
		}
	}
	leaves = &layout.LeafRows{}
	l = layout.Seal("kd-tree", RefineLeaf(sampled, pool, pool.RootSlot(), ir, rows, 40, leaves), data.RowBytes())
	if l.NumPartitions() < 8 {
		t.Fatalf("want a refined region, got %d cells", l.NumPartitions())
	}
	for _, p := range l.Parts {
		if p.Desc.Kind() != layout.KindIrregular {
			t.Errorf("cell %d is not irregular", p.ID)
		}
	}
	if err := leaves.MatchRouting(l, sampled); err != nil {
		t.Error(err)
	}
}

func TestRefineLeaf(t *testing.T) {
	data := dataset.Uniform(300, 2, 5)
	box := data.Domain()
	node := RefineLeaf(data, nil, 0, layout.NewRect(box), allRows(300), 30, nil)
	leaves := node.Leaves()
	if len(leaves) < 4 {
		t.Errorf("RefineLeaf produced %d leaves", len(leaves))
	}
	for _, lf := range leaves {
		if !box.ContainsBox(lf.Desc.MBR()) {
			t.Error("leaf escapes the parent box")
		}
	}
	l := layout.Seal("kd-tree", node, data.RowBytes())
	l.Route(data)
	for _, p := range l.Parts {
		if n := p.FullRows; n < 30 || n >= 60 {
			t.Errorf("leaf has %d rows, want [30,60)", n)
		}
	}
}

func TestWorkloadIndependence(t *testing.T) {
	// The k-d tree must produce identical layouts regardless of workload —
	// it is data-aware only. (Trivially true by API; this pins the shape.)
	data := dataset.Uniform(600, 2, 8)
	l1 := Build(data, allRows(600), data.Domain(), Params{MinRows: 50})
	l2 := Build(data, allRows(600), data.Domain(), Params{MinRows: 50})
	if l1.NumPartitions() != l2.NumPartitions() {
		t.Fatal("k-d tree build not deterministic")
	}
	for i := range l1.Parts {
		if !l1.Parts[i].Desc.MBR().Equal(l2.Parts[i].Desc.MBR()) {
			t.Fatal("k-d tree build not deterministic")
		}
	}
}

func TestSubsetRows(t *testing.T) {
	// Building on a strict sample, then routing the full dataset.
	data := dataset.Uniform(2000, 2, 4)
	sample := data.Sample(500, 77)
	l := Build(data, sample, data.Domain(), Params{MinRows: 50})
	l.Route(data)
	if l.Unrouted != 0 {
		t.Fatalf("unrouted = %d", l.Unrouted)
	}
	var sum int64
	for _, p := range l.Parts {
		sum += p.FullRows
	}
	if sum != 2000 {
		t.Errorf("routed %d rows", sum)
	}
}
