package blockstore

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"paw/internal/colstore"
	"paw/internal/dataset"
	"paw/internal/kdtree"
	"paw/internal/parbuild"
)

// BenchmarkMaterialize puts a number on the set-up cost of the store: a 2 M-row
// TPC-H-like table routed through k-d layouts of ~60 and ~320 partitions (the
// two regimes of the end-to-end benchmark: a few large partitions, many
// three-group ones). Beside ns/op and B/op it reports the wall cost per row
// and where it goes: route-ns/row is the routing pass plus the counting sort,
// and the rest — colstore.Builder.BuildAll — splits into encode-ns/row, what
// encoding the same partitions costs once their rows are in table order
// (colstore.FromDataset, fanned out the same way), and cluster-ns/row, what
// putting them in that order adds.
func BenchmarkMaterialize(b *testing.B) {
	const rows = 2_000_000
	data := dataset.TPCHLike(rows, 1).Project(4)
	sample := data.Sample(rows/10, 2)
	for _, minRows := range []int{2000, 400} {
		l := kdtree.Build(data, sample, data.Domain(), kdtree.Params{MinRows: minRows})
		b.Run(fmt.Sprintf("parts=%d", l.NumPartitions()), func(b *testing.B) {
			cfg := Config{GroupRows: 2048}
			b.ReportAllocs()
			var route time.Duration
			for i := 0; i < b.N; i++ {
				route += Materialize(l, data, cfg).RoutingTime
			}
			b.StopTimer()
			perRow := func(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) / rows }
			b.ReportMetric(perRow(b.Elapsed(), b.N), "ns/row")
			b.ReportMetric(perRow(route, b.N), "route-ns/row")

			byPart := partitionRows(l, l.RouteAssign(data, runtime.GOMAXPROCS(0)))
			t0 := time.Now()
			cfg.Builder(data).BuildAll(byPart, func(int, *colstore.Table) {})
			t1 := time.Now()
			pool := parbuild.New(0)
			pool.Fan(pool.RootSlot(), len(byPart), func(i, _ int) {
				colstore.FromDataset(data, byPart[i], cfg.GroupRows)
			})
			build, encode := t1.Sub(t0), time.Since(t1)
			b.ReportMetric(perRow(build-encode, 1), "cluster-ns/row")
			b.ReportMetric(perRow(encode, 1), "encode-ns/row")
		})
	}
}
