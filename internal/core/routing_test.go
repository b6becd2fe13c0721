package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"paw/internal/dataset"
	"paw/internal/geom"
	"paw/internal/kdtree"
	"paw/internal/layout"
	"paw/internal/qdtree"
	"paw/internal/workload"
)

// TestBulkRoutingMatchesLinear routes, through RouteRows and RouteIndices,
// points that probe every split of real PAW (with and without the data-aware
// refinement, so irregular cells too), Qd-tree and k-d layouts — each node's
// bounds and the floats either side of them on one dimension, the rest of the
// point a sample row — plus points outside the domain, NaN and ±Inf
// coordinates, and checks each against LocateLinear, which tests every child
// by Desc.Contains. The PAW layouts have Multi-Group nodes, whose irregular
// remainders bulk routing takes without testing their holes. It routes a
// routing block less one row, a block, a block and a row, three blocks and
// seven rows and every probe: RouteRows' lists, on 1 to 4 workers, must
// ascend and its FullRows, Unrouted and TotalBytes match LocateLinear's
// counts, and so must RouteIndices' lists.
func TestBulkRoutingMatchesLinear(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, data := range []*dataset.Dataset{
		dataset.TPCHLike(6_000, 11).Project(3).Normalize(),
		dataset.OSMLike(6_000, 5, 12).Normalize(),
	} {
		dom := data.Domain()
		rows := allRows(data.NumRows())
		hist := workload.Skewed(dom, workload.GenParams{NumQueries: 30, MaxRangeFrac: 0.3, Centers: 4, SigmaFrac: 0.1, Seed: 13})
		delta := 0.01 * (dom.Hi[0] - dom.Lo[0])
		layouts := map[string]*layout.Layout{
			"paw":        Build(data, rows, dom, hist, Params{MinRows: 40, Delta: delta}),
			"paw-refine": Build(data, rows, dom, hist, Params{MinRows: 40, Delta: delta, DataAwareRefine: true}),
			"qd-tree":    qdtree.Build(data, rows, dom, hist.Boxes(), qdtree.Params{MinRows: 40}),
			"kd-tree":    kdtree.Build(data, rows, dom, kdtree.Params{MinRows: 40}),
		}
		for name, l := range layouts {
			if name == "paw" && !hasIrregular(l) {
				t.Fatalf("%s: no Multi-Group split, so no remainder to route", name)
			}
			probes := splitProbes(r, l, data)
			for _, n := range []int{routeBlock - 1, routeBlock, routeBlock + 1, 3*routeBlock + 7, probes.NumRows()} {
				checkBulkRouting(t, r, fmt.Sprintf("%s n=%d", name, n), l, head(probes, n))
			}
			l.RouteParallel(data, 2)
			if err := l.Validate(data, 0); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
}

// routeBlock is the routing engine's block (layout.routeBlock).
const routeBlock = 4096

// head is data's first n rows.
func head(data *dataset.Dataset, n int) *dataset.Dataset {
	cols := make([][]float64, data.Dims())
	for d := range cols {
		cols[d] = data.Column(d)[:n]
	}
	return dataset.MustNew(data.Names(), cols)
}

// checkBulkRouting routes data through l, with RouteRows on 1 to 4 workers
// and RouteIndices, and checks every list against LocateLinear.
func checkBulkRouting(t *testing.T, r *rand.Rand, name string, l *layout.Layout, data *dataset.Dataset) {
	t.Helper()
	n := data.NumRows()
	want := make([]layout.ID, n)
	wantRows := make([]int64, len(l.Parts))
	var unrouted int64
	for i := range want {
		want[i] = -1
		if p := l.LocateLinear(data.Point(i)); p != nil {
			want[i] = p.ID
			wantRows[p.ID]++
		} else {
			unrouted++
		}
	}
	if unrouted == 0 {
		t.Fatalf("%s: every probe routes; the test needs unrouted ones", name)
	}
	wantLists := make([][]int, len(l.Parts))
	for i, id := range want {
		if id >= 0 {
			wantLists[id] = append(wantLists[id], i)
		}
	}
	for id, rows := range l.RouteIndices(data) {
		if !slices.Equal(rows, wantLists[id]) {
			t.Fatalf("%s: RouteIndices puts %d rows in partition %d in another order or set than LocateLinear's %d", name, len(rows), id, len(wantLists[id]))
		}
	}
	for workers := 1; workers <= 4; workers++ {
		for id, rows := range l.RouteRows(data, workers) {
			for k, i := range rows {
				if want[i] != layout.ID(id) || k > 0 && rows[k-1] >= i {
					t.Fatalf("%s workers=%d: point %v in partition %d at %d, LocateLinear %d", name, workers, data.Point(i), id, k, want[i])
				}
			}
			if got := int64(len(rows)); got != wantRows[id] || l.Parts[id].FullRows != got {
				t.Fatalf("%s workers=%d: partition %d lists %d rows, FullRows %d, LocateLinear %d", name, workers, id, got, l.Parts[id].FullRows, wantRows[id])
			}
		}
		if l.Unrouted != unrouted || l.TotalBytes != int64(n)*l.RowBytes {
			t.Fatalf("%s workers=%d: Unrouted %d, TotalBytes %d; want %d, %d", name, workers, l.Unrouted, l.TotalBytes, unrouted, int64(n)*l.RowBytes)
		}
	}
}

// hasIrregular reports whether any partition of l is irregular.
func hasIrregular(l *layout.Layout) bool {
	for _, p := range l.Parts {
		if p.Desc.Kind() == layout.KindIrregular {
			return true
		}
	}
	return false
}

// splitProbes returns the probe points of TestBulkRoutingMatchesLinear as a
// dataset with data's columns.
func splitProbes(r *rand.Rand, l *layout.Layout, data *dataset.Dataset) *dataset.Dataset {
	dims := data.Dims()
	cols := make([][]float64, dims)
	add := func(p geom.Point) {
		for d, v := range p {
			cols[d] = append(cols[d], v)
		}
	}
	l.Root.Walk(func(n *layout.Node) {
		m := n.Desc.MBR()
		for d := 0; d < dims; d++ {
			for _, v := range []float64{
				m.Lo[d], m.Hi[d],
				math.Nextafter(m.Lo[d], math.Inf(-1)), math.Nextafter(m.Hi[d], math.Inf(1)),
			} {
				p := data.Point(r.Intn(data.NumRows()))
				p[d] = v
				add(p)
			}
		}
	})
	dom := data.Domain()
	for i := 0; i < 200; i++ {
		p := data.Point(r.Intn(data.NumRows()))
		d := r.Intn(dims)
		switch i % 6 {
		case 0:
			p[d] = math.NaN()
		case 1:
			p[d] = dom.Hi[d] + 1
		case 2:
			p[d] = dom.Lo[d] - 1
		case 3:
			p[d] = math.Inf(1)
		case 4:
			p[d] = math.Inf(-1)
		default:
			for d := range p {
				p[d] = math.NaN()
			}
		}
		add(p)
	}
	for len(cols[0]) < 3*routeBlock+7 {
		add(data.Point(r.Intn(data.NumRows())))
	}
	return dataset.MustNew(data.Names(), cols)
}
