package colstore

import (
	"slices"
	"testing"

	"paw/internal/dataset"
)

// BenchmarkBuildPhases times one partition's Builder.build and, apart, its
// phases: the gather of the records from the dataset (gather); the tiling,
// whose time is its selections and their extent passes (tile); the run-key
// census of every column with the order words it fills (census); and the word
// sort of every tile (sort). The records are shaped like the end-to-end
// benchmark's: the 4-column TPC-H stand-in (5-word records) at 2¹⁷ rows and at
// 2²⁰, the size of tpch-selective's Multi-Group remainder, and the 2-column
// OSM one (3-word records), all normalised, in 2 048-row groups. The pool is
// GOMAXPROCS wide, as in a store build (`-cpu 1` for a serial build); sort is
// timed serially. ns/row is per row of the partition, so a phase's share of
// build is the ratio of the two (`make bench-setup`). Nothing is asserted on
// time.
func BenchmarkBuildPhases(b *testing.B) {
	const groupRows = 2048
	for _, c := range []struct {
		name string
		data *dataset.Dataset
	}{
		{"tpch", dataset.TPCHLike(1<<17, 1).Project(4).Normalize()},
		{"tpch-2^20", dataset.TPCHLike(1<<20, 1).Project(4).Normalize()},
		{"osm", dataset.OSMLike(1<<17, 12, 1).Normalize()},
	} {
		rows := c.data.NumRows()
		bld := NewBuilder(c.data, groupRows)
		slot := bld.pool.RootSlot()
		scratch := make([]clusterScratch, bld.pool.Slots())
		sc := &scratch[slot]
		all := make([]int, rows)
		for i := range all {
			all[i] = i
		}
		stride := c.data.Dims() + 1
		sc.src = slices.Clone(all)
		bld.gather(sc, stride, slot)
		gathered := slices.Clone(sc.recs)
		bld.tile(sc.recs, stride, slot)
		slotBits := bld.packOrder(sc, rows, stride, slot)
		order := slices.Clone(sc.order)
		perRow := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
		}

		b.Run(c.name+"/gather", func(b *testing.B) {
			for range b.N {
				bld.gather(sc, stride, slot)
			}
			perRow(b)
		})
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
		bld.tile(sc.recs, stride, slot)
		b.Run(c.name+"/census", func(b *testing.B) {
			for range b.N {
				bld.packOrder(sc, rows, stride, slot)
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
