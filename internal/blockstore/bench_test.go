package blockstore

import (
	"fmt"
	"runtime"
	"slices"
	"syscall"
	"testing"
	"time"

	"paw/internal/colstore"
	"paw/internal/core"
	"paw/internal/dataset"
	"paw/internal/kdtree"
	"paw/internal/layout"
	"paw/internal/parbuild"
	"paw/internal/workload"
)

// BenchmarkMaterialize puts a number on the set-up cost of the store: a 2 M-row
// TPC-H-like table, normalised as the end-to-end benchmark's is, routed
// through k-d layouts of ~60 and ~320 partitions (the two regimes of the
// end-to-end benchmark: a few large partitions, many three-group ones) and
// through a PAW layout built for a wide skewed workload like tpch-wide-scan's,
// whose tree has Multi-Group nodes and irregular partitions. Beside ns/op and
// B/op it reports the wall cost per row and where it goes: route-ns/row is the
// routing pass (Layout.RouteRows, which deals the rows into per-partition
// lists), and the rest —
// colstore.Builder.BuildAll — splits into encode-ns/row, what encoding the
// same partitions costs once their rows are in table order
// (colstore.FromDataset, fanned out the same way), and cluster-ns/row, what
// putting them in that order adds. largest-ms is what building the largest
// partition alone takes: the floor under BuildAll's wall time. cores is the
// process CPU time over the wall time of the timed Materialize calls.
func BenchmarkMaterialize(b *testing.B) {
	const rows = 2_000_000
	data := dataset.TPCHLike(rows, 1).Project(4).Normalize()
	sample := data.Sample(rows/10, 2)
	dom := data.Domain()
	hist := workload.Skewed(dom, workload.GenParams{NumQueries: 100, MaxRangeFrac: 0.9, Centers: 10, SigmaFrac: 0.1, Seed: 3})
	for _, l := range []*layout.Layout{
		kdtree.Build(data, sample, dom, kdtree.Params{MinRows: 2000}),
		kdtree.Build(data, sample, dom, kdtree.Params{MinRows: 400}),
		core.Build(data, sample, dom, hist, core.Params{MinRows: len(sample) / 600, Delta: 0.01 * (dom.Hi[0] - dom.Lo[0])}),
	} {
		b.Run(fmt.Sprintf("%s/parts=%d", l.Method, l.NumPartitions()), func(b *testing.B) {
			cfg := Config{GroupRows: 2048}
			b.ReportAllocs()
			var route time.Duration
			cpu := processCPU(b)
			for i := 0; i < b.N; i++ {
				route += Materialize(l, data, cfg).RoutingTime
			}
			b.StopTimer()
			b.ReportMetric(float64(processCPU(b)-cpu)/float64(b.Elapsed()), "cores")
			perRow := func(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) / rows }
			b.ReportMetric(perRow(b.Elapsed(), b.N), "ns/row")
			b.ReportMetric(perRow(route, b.N), "route-ns/row")

			byPart := l.RouteRows(data, runtime.GOMAXPROCS(0))
			t0 := time.Now()
			cfg.Builder(data, l).BuildAll(byPart, l.ExtendedHist(), func(int, *colstore.Table) {})
			t1 := time.Now()
			pool := parbuild.New(0)
			pool.Fan(pool.RootSlot(), len(byPart), func(i, _ int) {
				colstore.FromDataset(data, byPart[i], cfg.GroupRows)
			})
			build, encode := t1.Sub(t0), time.Since(t1)
			b.ReportMetric(perRow(build-encode, 1), "cluster-ns/row")
			b.ReportMetric(perRow(encode, 1), "encode-ns/row")

			largest := slices.Clone(slices.MaxFunc(byPart, func(x, y []int) int { return len(x) - len(y) }))
			bld := cfg.Builder(data, l)
			t2 := time.Now()
			bld.Build(largest, l.ExtendedHist())
			b.ReportMetric(float64(time.Since(t2).Nanoseconds())/1e6, "largest-ms")
		})
	}
}

// processCPU is the user and system CPU time the process has used so far.
func processCPU(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
