package layout

import (
	"paw/internal/dataset"
	"paw/internal/geom"
	"paw/internal/rtree"
)

// Extra is a redundant partition installed by the storage tuner (§V-B): a
// rectangular copy of the records inside Box, stored in spare disk space.
// Queries fully contained in Box can be answered from the extra partition
// alone.
type Extra struct {
	Box      geom.Box
	FullRows int64
	RowBytes int64
}

// Bytes returns the extra partition's physical size.
func (e Extra) Bytes() int64 { return e.FullRows * e.RowBytes }

// Extras is the set of redundant partitions attached to a layout.
type Extras []Extra

// costRowsIndexMinWork is the pieces×queries product above which CostRows
// builds a query index instead of running the quadratic loop: below it the
// index construction costs more than it prunes.
const costRowsIndexMinWork = 4096

// CostRows is the construction-time cost model: the total number of sample
// rows a workload scans against candidate pieces. Both Algorithms 1–3 and
// the Qd-tree greedy use it with sample-row sizes (Eq. 2 with size measured
// in rows). Large instances index the queries (STR box R-tree) and probe one
// piece at a time, turning O(|P|·|Q|) into O(|P|·log|Q| + matches); the
// total is identical to the quadratic reference because every intersecting
// (piece, query) pair survives the MBR pre-filter and int64 summation is
// order-independent.
func CostRows(pieces []Piece, queries []geom.Box) int64 {
	if len(pieces)*len(queries) < costRowsIndexMinWork {
		return costRowsLinear(pieces, queries)
	}
	idx := rtree.STRBoxes(queries, 8)
	var total int64
	var cand []int
	for _, p := range pieces {
		rows := int64(p.Rows)
		cand = idx.AppendIntersecting(cand[:0], p.Desc.MBR())
		for _, qi := range cand {
			if p.Desc.Intersects(queries[qi]) {
				total += rows
			}
		}
	}
	return total
}

// costRowsLinear is the retained quadratic reference for CostRows.
func costRowsLinear(pieces []Piece, queries []geom.Box) int64 {
	var total int64
	for _, q := range queries {
		for _, p := range pieces {
			if p.Desc.Intersects(q) {
				total += int64(p.Rows)
			}
		}
	}
	return total
}

// Piece is a candidate partition during construction: a descriptor plus the
// number of sample rows it holds.
type Piece struct {
	Desc Descriptor
	Rows int
}

// QueryCost returns Cost(P, q) in bytes (Eq. 1): the total size of the
// partitions whose descriptors intersect q, after precise-descriptor pruning
// (§V-A) and the storage tuner's extra partitions (§V-B) are applied. It sums
// over the routing index's candidates; the result is identical to
// QueryCostLinear.
func (l *Layout) QueryCost(q geom.Box, extras Extras) int64 {
	// A query fully inside an extra partition may be answered from the
	// cheapest such copy — but only when that beats scanning the base
	// partitions, so attaching extras never makes a query more expensive.
	if best := cheapestExtra(extras, q); best >= 0 {
		if base := l.baseCost(q); base < best {
			return base
		}
		return best
	}
	return l.baseCost(q)
}

// baseCost is QueryCost without extras.
func (l *Layout) baseCost(q geom.Box) int64 {
	bp := candPool.Get().(*[]int)
	cand := l.index.AppendIntersecting((*bp)[:0], q)
	var total int64
	for _, i := range cand {
		if p := l.Parts[i]; p.scansCandidate(q) {
			total += p.Bytes()
		}
	}
	*bp = cand[:0]
	candPool.Put(bp)
	return total
}

// QueryCostLinear is the retained linear reference for QueryCost: a full
// scan over every partition descriptor. Differential tests and the routing
// benchmark compare against it.
func (l *Layout) QueryCostLinear(q geom.Box, extras Extras) int64 {
	var base int64
	for _, p := range l.Parts {
		if p.Desc.Intersects(q) && !p.PruneWithPrecise(q) {
			base += p.Bytes()
		}
	}
	if best := cheapestExtra(extras, q); best >= 0 && best < base {
		return best
	}
	return base
}

// cheapestExtra returns the size of the cheapest extra partition fully
// containing q, or -1 when none does.
func cheapestExtra(extras Extras, q geom.Box) int64 {
	best := int64(-1)
	for _, e := range extras {
		if e.Box.ContainsBox(q) {
			if b := e.Bytes(); best < 0 || b < best {
				best = b
			}
		}
	}
	return best
}

// WorkloadCost returns Cost(P, Q) in bytes (Eq. 2).
func (l *Layout) WorkloadCost(queries []geom.Box, extras Extras) int64 {
	var total int64
	for _, q := range queries {
		total += l.QueryCost(q, extras)
	}
	return total
}

// AvgCost returns the average per-query cost in bytes.
func (l *Layout) AvgCost(queries []geom.Box, extras Extras) float64 {
	if len(queries) == 0 {
		return 0
	}
	return float64(l.WorkloadCost(queries, extras)) / float64(len(queries))
}

// ScanRatio returns the paper's headline metric: the average per-query I/O
// cost as a fraction of the dataset size (reported as "% of dataset").
func (l *Layout) ScanRatio(queries []geom.Box, extras Extras) float64 {
	if l.TotalBytes == 0 {
		return 0
	}
	return l.AvgCost(queries, extras) / float64(l.TotalBytes)
}

// LowerBoundBytes is LBCost for one query: the exact result size, i.e. the
// bytes of the records matching q. No layout can scan less.
func LowerBoundBytes(data *dataset.Dataset, q geom.Box) int64 {
	return int64(data.CountInBox(q, nil)) * data.RowBytes()
}

// LowerBoundRatio returns the average LBCost over a workload as a fraction
// of the dataset size.
func LowerBoundRatio(data *dataset.Dataset, queries []geom.Box) float64 {
	if len(queries) == 0 || data.NumRows() == 0 {
		return 0
	}
	var total int64
	for _, q := range queries {
		total += LowerBoundBytes(data, q)
	}
	return float64(total) / float64(len(queries)) / float64(data.TotalBytes())
}

// PartitionsFor returns the IDs of the partitions a query must scan, in ID
// order — the list the master sends to the storage layer (Fig. 4), answered
// from the routing index; the result is identical to PartitionsForLinear. Use AppendPartitionsFor to reuse a buffer across
// queries.
func (l *Layout) PartitionsFor(q geom.Box) []ID {
	return l.AppendPartitionsFor(nil, q)
}

// PartitionsForLinear is the retained linear reference for PartitionsFor: a
// full scan over every partition descriptor. Differential tests and the
// routing benchmark compare against it.
func (l *Layout) PartitionsForLinear(q geom.Box) []ID {
	return l.AppendPartitionsForLinear(nil, q)
}
