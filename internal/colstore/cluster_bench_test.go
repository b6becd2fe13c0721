package colstore

import (
	"slices"
	"testing"

	"paw/internal/dataset"
)

// BenchmarkBuildPhases times one partition's Builder.build and, apart, its
// phases: the gather of the records from the dataset (gather); the run-key
// census of every column with the ranks it puts in the records (census); the
// tiling, whose time is its selections and their extent passes (tile); and the
// word sort of every tile (sort). The records are shaped like the end-to-end
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
		bld := NewBuilder(c.data, c.data.Domain(), groupRows)
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
		slotBits := bld.census(sc, rows, stride, slot)
		ranked := slices.Clone(sc.recs)
		bld.tile(sc.recs, stride, slot, nil, nil)
		perRow := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
		}

		b.Run(c.name+"/gather", func(b *testing.B) {
			recs := sc.recs
			sc.recs = slices.Clone(gathered)
			for range b.N {
				bld.gather(sc, stride, slot)
			}
			sc.recs = recs
			perRow(b)
		})
		b.Run(c.name+"/census", func(b *testing.B) {
			recs := sc.recs
			sc.recs = make([]uint64, len(gathered))
			for range b.N {
				b.StopTimer()
				copy(sc.recs, gathered)
				b.StartTimer()
				bld.census(sc, rows, stride, slot)
			}
			sc.recs = recs
			perRow(b)
		})
		b.Run(c.name+"/tile", func(b *testing.B) {
			recs := make([]uint64, len(ranked))
			for range b.N {
				b.StopTimer()
				copy(recs, ranked)
				b.StartTimer()
				bld.tile(recs, stride, slot, nil, nil)
			}
			perRow(b)
		})
		// The order words of the tiled records, as build makes them.
		rankBits := uint(sc.rankBits)
		order := make([]uint64, rows)
		for i := range order {
			w := sc.recs[i*stride]
			order[i] = (w&(1<<rankBits-1))<<(64-rankBits) | w>>rankBits<<slotBits | uint64(i%groupRows)
		}
		sc.order = slices.Clone(order)
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
				bld.build(rows, nil, scratch, slot)
			}
			perRow(b)
		})
	}
}
