package colstore

import (
	"slices"
	"testing"

	"paw/internal/dataset"
	"paw/internal/parbuild"
)

// BenchmarkBuildPhases times one partition's Builder.build serially (build)
// and, apart, the three loops of it that compare values: the tiling, whose
// time is its selections and their extent passes (tile); the word sort of
// every tile (sort); and the run-key census of every column (census). The
// records are shaped like the end-to-end benchmark's: the 4-column TPC-H
// stand-in (5-word records) and the 2-column OSM one (3-word records), both
// normalised, in 2 048-row groups. ns/row is per row of the partition, so a
// phase's share of build is the ratio of the two (`make bench-setup`).
// Nothing is asserted on time.
func BenchmarkBuildPhases(b *testing.B) {
	const rows, groupRows = 1 << 17, 2048
	for _, c := range []struct {
		name string
		data *dataset.Dataset
	}{
		{"tpch", dataset.TPCHLike(rows, 1).Project(4).Normalize()},
		{"osm", dataset.OSMLike(rows, 12, 1).Normalize()},
	} {
		bld := NewBuilder(c.data, groupRows)
		bld.pool = parbuild.New(1)
		slot := bld.pool.RootSlot()
		scratch := make([]clusterScratch, bld.pool.Slots())
		sc := &scratch[slot]
		all := make([]int, rows)
		for i := range all {
			all[i] = i
		}
		stride := c.data.Dims() + 1
		gathered := make([]uint64, rows*stride)
		for i := range rows {
			gathered[i*stride] = uint64(i)
			for d := range c.data.Dims() {
				gathered[i*stride+1+d] = orderKey(c.data.At(i, d))
			}
		}
		sc.recs = slices.Clone(gathered)
		bld.tile(sc.recs, stride, slot)
		slotBits := sc.packOrder(rows, stride, groupRows)
		order := slices.Clone(sc.order)
		perRow := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
		}

		b.Run(c.name+"/tile", func(b *testing.B) {
			recs := make([]uint64, len(gathered))
			for range b.N {
				b.StopTimer()
				copy(recs, gathered)
				b.StartTimer()
				bld.tile(recs, stride, slot)
			}
			perRow(b)
		})
		b.Run(c.name+"/sort", func(b *testing.B) {
			for range b.N {
				copy(sc.order, order)
				for lo := 0; lo < rows; lo += groupRows {
					bld.sortTile(sc, sc.order[lo:lo+groupRows], sc.recs[lo*stride:(lo+groupRows)*stride], stride, slotBits, &sc.radix)
				}
			}
			perRow(b)
		})
		b.Run(c.name+"/census", func(b *testing.B) {
			for range b.N {
				for d := range c.data.Dims() {
					sc.census[d].take(sc.recs, stride, 1+d)
				}
			}
			perRow(b)
		})
		b.Run(c.name+"/build", func(b *testing.B) {
			rows := make([]int, rows)
			for range b.N {
				copy(rows, all) // build leaves its rows in table order
				bld.build(rows, scratch, slot)
			}
			perRow(b)
		})
	}
}
