// Package descriptor implements the precise-descriptor plugin module of
// §V-A: every partition is additionally described by a small set of Nmbr
// MBRs that collectively cover its records, extracted with the R-tree (STR)
// construction algorithm. During query processing the master skips a
// partition whose precise MBRs all miss the query even when its coarse
// descriptor intersects it.
package descriptor

import (
	"fmt"

	"paw/internal/dataset"
	"paw/internal/layout"
	"paw/internal/rtree"
)

// BytesPerBound is the per-dimension, per-bound footprint of a stored MBR:
// the paper accounts 16·dmax bytes per MBR (two float64 bounds per
// dimension).
const BytesPerBound = 16

// Install builds precise descriptors with nmbr MBRs per partition from every
// record of data (the paper covers "all records in Pj") and attaches them to
// the layout's partitions.
//
// It returns the total master-memory overhead in bytes:
// 16 · dmax · Nmbr per partition.
func Install(l *layout.Layout, data *dataset.Dataset, nmbr int) (int64, error) {
	if nmbr < 1 {
		return 0, fmt.Errorf("descriptor: Nmbr must be >= 1, got %d", nmbr)
	}
	byPart := l.RouteIndices(data)
	var mem int64
	for _, p := range l.Parts {
		idx := byPart[p.ID]
		if len(idx) == 0 {
			p.Precise = nil
			continue
		}
		src := rtree.DatasetSource{Data: data, Rows: idx}
		p.Precise = rtree.ExtractMBRs(src, len(idx), nmbr)
		mem += int64(len(p.Precise)) * int64(data.Dims()) * BytesPerBound
	}
	return mem, nil
}

// Uninstall removes all precise descriptors from the layout.
func Uninstall(l *layout.Layout) {
	for _, p := range l.Parts {
		p.Precise = nil
	}
}
