package core

import (
	"math"
	"math/rand"
	"testing"

	"paw/internal/dataset"
	"paw/internal/geom"
	"paw/internal/kdtree"
	"paw/internal/layout"
	"paw/internal/qdtree"
	"paw/internal/workload"
)

// TestBulkRoutingMatchesLinear routes, through RouteAssign and RouteIndices,
// points that probe every split of real PAW (with and without the data-aware
// refinement, so irregular cells too), Qd-tree and k-d layouts — each node's
// bounds and the floats either side of them on one dimension, the rest of the
// point a sample row — plus points outside the domain, NaN and ±Inf
// coordinates, and checks each against LocateLinear, which tests every child
// by Desc.Contains. The PAW layouts have Multi-Group nodes, whose irregular
// remainders bulk routing takes without testing their holes.
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
			assign := l.RouteAssign(probes, 2)
			indexed := make([]int32, probes.NumRows())
			for i := range indexed {
				indexed[i] = -1
			}
			for id, idx := range l.RouteIndices(probes, allRows(probes.NumRows())) {
				for _, i := range idx {
					indexed[i] = int32(id)
				}
			}
			for i := range assign {
				pt := probes.Point(i)
				want := int32(-1)
				if p := l.LocateLinear(pt); p != nil {
					want = int32(p.ID)
				}
				if assign[i] != want || indexed[i] != want {
					t.Fatalf("%s: point %v: RouteAssign %d, RouteIndices %d, LocateLinear %d", name, pt, assign[i], indexed[i], want)
				}
			}
			l.RouteParallel(data, 2)
			if err := l.Validate(data, 0); err != nil {
				t.Errorf("%s: %v", name, err)
			}
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
	for len(cols[0]) < 8_192 {
		add(data.Point(r.Intn(data.NumRows())))
	}
	return dataset.MustNew(data.Names(), cols)
}
