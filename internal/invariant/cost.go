package invariant

import (
	"paw/internal/geom"
	"paw/internal/layout"
	"paw/internal/workload"
)

// CheckMonotonicity verifies the split-acceptance contract of Algorithms 2–3
// at every internal node, using the construction cost model (CostRows over
// sample rows) and independently re-derived per-node state: the node's
// extended queries (Q*F clipped down the path) and its sample-row count
// (sum over descendant leaves).
//
// Universal bound: replacing a node by its children never increases the
// node's Q*F cost — true for any split into covering interior-disjoint
// pieces, so it must hold for every builder (the k-d tree included).
//
// Greedy bound (Inputs.Greedy): PAW and the greedy Qd-tree accept a split
// only when it strictly decreases the cost, so every internal rectangular
// node with a positive own-cost must be strictly improved by its children.
// Irregular-descriptor nodes are refinement subtrees (their extended-query
// cost is 0 on both sides) and are exempt from the strict form.
func CheckMonotonicity(l *layout.Layout, in Inputs) error {
	in = in.withDefaults()
	if l.Root == nil {
		return violationf(OracleMonotonicity, "layout has no root")
	}
	if totalSampleRows(l) == 0 {
		return nil // reloaded layout: sample state is gone, nothing to check
	}
	queries := clipAll(in.Hist.Extend(in.Delta).Boxes(), in.Domain)
	_, err := checkMonoNode(l.Root, queries, in.Greedy)
	return err
}

func checkMonoNode(n *layout.Node, queries []geom.Box, greedy bool) (int, error) {
	if n.IsLeaf() {
		return len(n.Part.SampleRows), nil
	}
	rows := 0
	pieces := make([]layout.Piece, len(n.Children))
	for i, c := range n.Children {
		r, err := checkMonoNode(c, clipAll(queries, c.Desc.MBR()), greedy)
		if err != nil {
			return 0, err
		}
		rows += r
		pieces[i] = layout.Piece{Desc: c.Desc, Rows: r}
	}
	parentCost := layout.CostRows([]layout.Piece{{Desc: n.Desc, Rows: rows}}, queries)
	childCost := layout.CostRows(pieces, queries)
	if childCost > parentCost {
		return 0, violationf(OracleMonotonicity,
			"split of %v increases Q*F cost: %d rows scanned as one piece, %d after the split",
			n.Desc.MBR(), parentCost, childCost)
	}
	if greedy && n.Desc.Kind() == layout.KindRect && parentCost > 0 && childCost >= parentCost {
		return 0, violationf(OracleMonotonicity,
			"greedy builder kept a non-improving split of %v: cost %d before, %d after",
			n.Desc.MBR(), parentCost, childCost)
	}
	return rows, nil
}

func totalSampleRows(l *layout.Layout) int {
	n := 0
	for _, p := range l.Parts {
		n += len(p.SampleRows)
	}
	return n
}

// CheckLemma1 verifies the robustness guarantee of Lemma 1 (§IV-A)
// empirically: the layout's byte cost on the worst-case extended workload
// Q*F upper-bounds its cost on seeded δ-similar future workloads, per
// matched query pair and in aggregate. Each future workload is sampled with
// drift Inputs.DriftDelta (default δ); a drift above the declared δ models a
// broken workload-variance contract, which the oracle flags either through
// the δ-similarity re-check (bottleneck matching, Definition 2) or through a
// future query escaping its extended ancestor's cost bound.
func CheckLemma1(l *layout.Layout, in Inputs) error {
	in = in.withDefaults()
	if len(in.Hist) == 0 {
		return nil
	}
	// Cost accounting must be sane for any bound to mean anything.
	for _, p := range l.Parts {
		if p.FullRows < 0 || p.RowBytes < 0 {
			return violationf(OracleLemma1,
				"partition %d has negative size (%d rows × %d bytes): cost bounds are meaningless",
				p.ID, p.FullRows, p.RowBytes)
		}
	}
	ext := in.Hist.Extend(in.Delta)
	extCost := make([]int64, len(ext))
	var extTotal int64
	for i, q := range ext {
		extCost[i] = l.QueryCost(q.Box, nil)
		extTotal += extCost[i]
	}
	simTol := in.Delta * (1 + 1e-9)
	for k := 0; k < in.Futures; k++ {
		fut := workload.Future(in.Hist, in.DriftDelta, 1, in.Seed+31*int64(k)+1)
		var futTotal int64
		for i, q := range fut {
			c := l.QueryCost(q.Box, nil)
			futTotal += c
			if c > extCost[i] {
				return violationf(OracleLemma1,
					"future %d query %d %v costs %d bytes, above its Q*F bound %d (source %v, δ=%g, drift=%g)",
					k, i, q.Box, c, extCost[i], in.Hist[i].Box, in.Delta, in.DriftDelta)
			}
		}
		if futTotal > extTotal {
			return violationf(OracleLemma1,
				"future workload %d costs %d bytes, above the Q*F total %d", k, futTotal, extTotal)
		}
		if len(in.Hist) <= 64 {
			ok, err := workload.AreSimilar(in.Hist, fut, simTol)
			if err == nil && !ok {
				dp, derr := workload.MinimalDelta(in.Hist, fut)
				if derr != nil {
					dp = -1
				}
				return violationf(OracleLemma1,
					"future workload %d is not δ-similar to the history for δ=%g (minimal δ′=%g): the variance contract is broken",
					k, in.Delta, dp)
			}
		}
	}
	return nil
}
