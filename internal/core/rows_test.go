package core

import (
	"runtime"
	"testing"

	"paw/internal/dataset"
	"paw/internal/layout"
	"paw/internal/parbuild"
	"paw/internal/qdtree"
	"paw/internal/workload"
)

// TestLeafRowsMatchRouting builds PAW on a sample, with and without the
// §IV-E refinement (k-d cells of query-free leaves and of irregular
// remainders), and requires the rows every leaf was built with to be the
// sample rows routing sends it, in order.
func TestLeafRowsMatchRouting(t *testing.T) {
	data := dataset.TPCHLike(20_000, 41).Project(4).Normalize()
	dom := data.Domain()
	sample := data.Sample(6_000, 42)
	sampled, local := data.Gather(sample, 1)
	hist := workload.Skewed(dom, workload.GenParams{
		NumQueries: 60, MaxRangeFrac: 0.3, Centers: 5, SigmaFrac: 0.1, Seed: 43,
	})
	for _, refine := range []bool{false, true} {
		p := Params{MinRows: 30, Delta: 0.01, DataAwareRefine: refine}.withDefaults()
		pool := parbuild.New(2)
		b := newBuilder(sampled, p, pool, buildMetrics{})
		leaves := &layout.LeafRows{}
		b.leaves = leaves
		root := b.construct(dom, local, qdtree.ClipBoxes(hist.Extend(p.Delta).Boxes(), dom), 0, pool.RootSlot())
		l := layout.Seal("paw", root, data.RowBytes())
		irr := 0
		for _, p := range l.Parts {
			if p.Desc.Kind() == layout.KindIrregular {
				irr++
			}
		}
		if irr == 0 || l.NumPartitions() < 10 {
			t.Fatalf("refine %v: want a Multi-Group layout, got %d partitions (%d irregular)", refine, l.NumPartitions(), irr)
		}
		if err := leaves.MatchRouting(l, sampled); err != nil {
			t.Errorf("refine %v: %v", refine, err)
		}
	}
}

// TestBuiltLayoutKeepsNoRows builds each method's layout through BuildMethod
// on a 200 000-row sample at the benchmark's bmin (sample/600) and requires
// the heap the built layout keeps to stay under 2 KiB per partition: its
// tree, and nothing per sample row.
func TestBuiltLayoutKeepsNoRows(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three layouts on 200 000 rows")
	}
	in := benchShapes[0].inputs(200_000)
	in.sample = allRows(in.data.NumRows())
	p := in.params
	p.MinRows = len(in.sample) / 600
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for _, m := range []Method{MethodPAW, MethodQdTree, MethodKdTree} {
		before := heap()
		l, err := BuildMethod(m, in.data, in.sample, in.domain, in.hist, p)
		if err != nil {
			t.Fatal(err)
		}
		kept := int64(heap()) - int64(before)
		if per := kept / int64(l.NumPartitions()); per >= 2048 {
			t.Errorf("%s: the built layout keeps %d bytes, %d per partition of %d", m, kept, per, l.NumPartitions())
		}
		runtime.KeepAlive(l)
	}
}
