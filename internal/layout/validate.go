package layout

import (
	"fmt"

	"paw/internal/dataset"
	"paw/internal/geom"
)

// Validate checks structural invariants of a routed layout against the full
// dataset:
//
//  1. every record routes to exactly one leaf (Unrouted == 0 and counts add
//     up to the dataset size);
//  2. every leaf's descriptor region actually contains the records routed
//     to it (spot-checked exhaustively — routing guarantees it, so this
//     detects descriptor/tree disagreements);
//  3. every partition holds at least minRows rows when minRows > 0; there
//     is no exception.
//
// It returns a descriptive error for the first violation found.
func (l *Layout) Validate(data *dataset.Dataset, minRows int64) error {
	if l.Unrouted != 0 {
		return fmt.Errorf("layout: %d records were not routed to any partition", l.Unrouted)
	}
	var sum int64
	for _, p := range l.Parts {
		sum += p.FullRows
	}
	if sum != int64(data.NumRows()) {
		return fmt.Errorf("layout: routed %d records, dataset has %d", sum, data.NumRows())
	}
	if minRows > 0 {
		for _, p := range l.Parts {
			if p.FullRows < minRows {
				return fmt.Errorf("layout: partition %d has %d rows, below bmin=%d rows",
					p.ID, p.FullRows, minRows)
			}
		}
	}
	// Re-route every record and confirm each leaf's descriptor contains the
	// records routed to it.
	pt := make(geom.Point, data.Dims())
	routed := 0
	for id, rows := range l.RouteIndices(data) {
		for _, r := range rows {
			for d := range pt {
				pt[d] = data.At(r, d)
			}
			if !l.Parts[id].Desc.Contains(pt) {
				return fmt.Errorf("layout: record %d routed to partition %d whose descriptor excludes it", r, id)
			}
		}
		routed += len(rows)
	}
	if routed != data.NumRows() {
		return fmt.Errorf("layout: %d records route nowhere on revalidation", data.NumRows()-routed)
	}
	return nil
}

// CheckCostDominatesLB verifies Cost(P, q) >= LBCost(q) for every query —
// the cost model can never beat scanning exactly the result.
func (l *Layout) CheckCostDominatesLB(data *dataset.Dataset, queries []geom.Box) error {
	for i, q := range queries {
		c := l.QueryCost(q, nil)
		lb := LowerBoundBytes(data, q)
		if c < lb {
			return fmt.Errorf("layout: query %d cost %d below lower bound %d", i, c, lb)
		}
	}
	return nil
}
