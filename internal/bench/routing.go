package bench

import (
	"math/rand"
	"runtime"
	"testing"

	"paw/internal/dataset"
	"paw/internal/geom"
	"paw/internal/layout"
	"paw/internal/workload"
)

// RoutingResult is one (mode, workers) cell of the routing benchmark: the
// per-query routing latency, throughput and allocation pressure, plus the
// speedup against the linear reference for the same query kind.
type RoutingResult struct {
	Mode            string  `json:"mode"`
	Workers         int     `json:"workers"`
	NsPerQuery      int64   `json:"ns_per_query"`
	QueriesPerSec   float64 `json:"queries_per_sec"`
	AllocsPerQuery  float64 `json:"allocs_per_query"`
	SpeedupVsLinear float64 `json:"speedup_vs_linear"`
}

// RoutingReport is the machine-readable routing-performance snapshot written
// to BENCH_routing.json. Speedups of the batch modes are only meaningful
// relative to the recorded GOMAXPROCS/NumCPU; the indexed-vs-linear speedups
// are single-threaded and portable.
type RoutingReport struct {
	Meta         Meta            `json:"meta"`
	GOMAXPROCS   int             `json:"gomaxprocs"`
	NumCPU       int             `json:"num_cpu"`
	Partitions   int             `json:"partitions"`
	IndexHeight  int             `json:"index_height"`
	RangeQueries int             `json:"range_queries"`
	PointQueries int             `json:"point_queries"`
	Results      []RoutingResult `json:"results"`
}

// routingGridSide is the per-dimension cell count of the benchmark layout:
// 72² = 5184 leaf partitions, past the 5k mark where linear descriptor scans
// dominate master-side routing.
const routingGridSide = 72

// routingLayout builds and seals a two-level side×side grid over the unit
// square: the root fans out to side column strips, each strip to side cells.
// Both levels exceed childIndexMinFanout, so point routing exercises the
// per-node child indexes as well as the partition-level index.
func routingLayout(side int, rowBytes int64) *layout.Layout {
	dom := geom.UnitBox(2)
	root := &layout.Node{Desc: layout.NewRect(dom)}
	w := 1.0 / float64(side)
	for i := 0; i < side; i++ {
		strip := geom.Box{Lo: geom.Point{float64(i) * w, 0}, Hi: geom.Point{float64(i+1) * w, 1}}
		sn := &layout.Node{Desc: layout.NewRect(strip)}
		for j := 0; j < side; j++ {
			cell := geom.Box{
				Lo: geom.Point{float64(i) * w, float64(j) * w},
				Hi: geom.Point{float64(i+1) * w, float64(j+1) * w},
			}
			d := layout.NewRect(cell)
			sn.Children = append(sn.Children, &layout.Node{Desc: d, Part: &layout.Partition{Desc: d}})
		}
		root.Children = append(root.Children, sn)
	}
	l := layout.Seal("bench-grid", root, rowBytes)
	for _, p := range l.Parts {
		p.FullRows = 1000
		l.TotalBytes += p.Bytes()
	}
	return l
}

// RoutingBench measures master-side query routing on a sealed ≥5k-partition
// layout: range routing through the linear reference, the sealed descriptor
// index, and the batched sweep at each worker count, point routing down the
// tree with and without per-node child indexes, and bulk routing of every
// point at once. Results are identical across modes (see the differential
// tests); only time and allocations vary.
func RoutingBench(cfg Config, workers []int) RoutingReport {
	l := routingLayout(routingGridSide, 64)
	dom := geom.UnitBox(2)
	queries := workload.Uniform(dom, cfg.genParams(2000, cfg.Seed+23)).Boxes()
	r := rand.New(rand.NewSource(cfg.Seed + 29))
	points := make([]geom.Point, 20000)
	for i := range points {
		points[i] = geom.Point{r.Float64(), r.Float64()}
	}

	rep := RoutingReport{
		Meta:         Meta{Schema: RoutingSchema},
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		Partitions:   l.NumPartitions(),
		IndexHeight:  l.IndexHeight(),
		RangeQueries: len(queries),
		PointQueries: len(points),
	}

	var sinkIDs int
	var sinkPart *layout.Partition
	measure := func(mode string, w, n int, op func()) RoutingResult {
		res := testing.Benchmark(func(tb *testing.B) {
			tb.ReportAllocs()
			for i := 0; i < tb.N; i++ {
				op()
			}
		})
		nsQ := res.NsPerOp() / int64(n)
		out := RoutingResult{
			Mode:           mode,
			Workers:        w,
			NsPerQuery:     nsQ,
			AllocsPerQuery: float64(res.AllocsPerOp()) / float64(n),
		}
		if res.NsPerOp() > 0 {
			out.QueriesPerSec = float64(n) * 1e9 / float64(res.NsPerOp())
		}
		return out
	}

	ids := make([]layout.ID, 0, l.NumPartitions())
	rangeLinear := measure("range-linear", 1, len(queries), func() {
		for _, q := range queries {
			ids = l.AppendPartitionsForLinear(ids[:0], q)
			sinkIDs += len(ids)
		}
	})
	rep.Results = append(rep.Results, rangeLinear)

	rangeIndexed := measure("range-indexed", 1, len(queries), func() {
		for _, q := range queries {
			ids = l.AppendPartitionsFor(ids[:0], q)
			sinkIDs += len(ids)
		}
	})
	rangeIndexed.SpeedupVsLinear = speedup(rangeLinear.NsPerQuery, rangeIndexed.NsPerQuery)
	rep.Results = append(rep.Results, rangeIndexed)

	for _, w := range workers {
		w := w
		res := measure("range-batch", w, len(queries), func() {
			out := l.PartitionsForBatch(queries, w)
			sinkIDs += len(out)
		})
		res.SpeedupVsLinear = speedup(rangeLinear.NsPerQuery, res.NsPerQuery)
		rep.Results = append(rep.Results, res)
	}

	pointLinear := measure("point-linear", 1, len(points), func() {
		for _, p := range points {
			sinkPart = l.LocateLinear(p)
		}
	})
	rep.Results = append(rep.Results, pointLinear)

	pointIndexed := measure("point-indexed", 1, len(points), func() {
		for _, p := range points {
			sinkPart = l.Locate(p)
		}
	})
	pointIndexed.SpeedupVsLinear = speedup(pointLinear.NsPerQuery, pointIndexed.NsPerQuery)
	rep.Results = append(rep.Results, pointIndexed)

	// Bulk routing (RouteRows) of every point at once, ns per point. Both
	// grid levels are child-indexed, so every row is dealt by FirstContaining;
	// axis-split trees are BenchmarkMaterialize's.
	xs, ys := make([]float64, len(points)), make([]float64, len(points))
	for i, p := range points {
		xs[i], ys[i] = p[0], p[1]
	}
	pts := dataset.MustNew([]string{"x", "y"}, [][]float64{xs, ys})
	bulk := measure("bulk-rows", runtime.GOMAXPROCS(0), len(points), func() { l.RouteRows(pts, runtime.GOMAXPROCS(0)) })
	bulk.SpeedupVsLinear = speedup(pointLinear.NsPerQuery, bulk.NsPerQuery)
	rep.Results = append(rep.Results, bulk)

	_ = sinkIDs
	_ = sinkPart
	return rep
}

func speedup(baseNs, ns int64) float64 {
	if baseNs <= 0 || ns <= 0 {
		return 0
	}
	return float64(baseNs) / float64(ns)
}
