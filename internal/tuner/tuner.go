// Package tuner implements the storage-tuner plugin module of §V-B: spare
// disk space is spent on redundant ("extra") partitions — one candidate per
// worst-case query q*j, holding exactly q*j's result — selected greedily in
// descending order of the gain function (Eq. 5) until the space budget is
// exhausted. A query fully contained in an extra partition is answered from
// that copy alone.
package tuner

import (
	"paw/internal/dataset"
	"paw/internal/geom"
	"paw/internal/layout"
	"paw/internal/obs"
)

// Tuner metric names. The gain histogram records Eq. 5's gain of every
// accepted replica (a dimensionless saved-bytes/spent-bytes ratio); the
// budget gauges expose consumption so an operator can see how much of the
// spare space the greedy loop actually spent.
const (
	MetricCandidates      = "tuner_candidates_total"
	MetricReplicas        = "tuner_replicas_selected_total"
	MetricReplicaBytes    = "tuner_replica_bytes_total"
	MetricBudgetBytes     = "tuner_budget_bytes"
	MetricBudgetRemaining = "tuner_budget_remaining_bytes"
	MetricGain            = "tuner_replica_gain"
)

// GainBuckets are the histogram bounds for Eq. 5 gain ratios: a gain below 1
// means the replica saves less than it costs (the greedy loop never accepts
// those), and focused workloads routinely reach gains in the hundreds.
func GainBuckets() []float64 {
	return []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
}

// Select runs the greedy algorithm of §V-B: candidates are the extended
// queries' regions; gains follow Eq. 5 and are recomputed after every pick
// (earlier picks lower the residual cost of queries they cover). budgetBytes
// caps the total size of the selected extra partitions.
//
// The returned extras are ready to pass to Layout.QueryCost.
func Select(l *layout.Layout, data *dataset.Dataset, queries []geom.Box, budgetBytes int64) layout.Extras {
	return SelectObserved(l, data, queries, budgetBytes, nil)
}

// SelectObserved is Select with telemetry: per-replica gain observations,
// replica and byte counts, and budget consumption gauges. reg may be nil
// (equivalent to Select); the selection itself is identical either way.
func SelectObserved(l *layout.Layout, data *dataset.Dataset, queries []geom.Box, budgetBytes int64, reg *obs.Registry) layout.Extras {
	var (
		cReplicas, cBytes *obs.Counter
		gBudget, gRemain  *obs.Gauge
		hGain             *obs.Histogram
	)
	if reg != nil {
		reg.Counter(MetricCandidates).Add(int64(len(queries)))
		cReplicas = reg.Counter(MetricReplicas)
		cBytes = reg.Counter(MetricReplicaBytes)
		gBudget = reg.Gauge(MetricBudgetBytes)
		gRemain = reg.Gauge(MetricBudgetRemaining)
		hGain = reg.Histogram(MetricGain, GainBuckets())
		gBudget.Set(budgetBytes)
		gRemain.Set(budgetBytes)
	}
	if budgetBytes <= 0 || len(queries) == 0 {
		return nil
	}
	type cand struct {
		box   geom.Box
		bytes int64
		taken bool
	}
	cands := make([]cand, len(queries))
	for i, q := range queries {
		rows := int64(data.CountInBox(q, nil))
		cands[i] = cand{box: q.Clone(), bytes: rows * data.RowBytes()}
	}
	// Residual cost of answering each query with the current layout plus
	// the extras selected so far. Batched, index-accelerated costing: this
	// sweep was the slowest part of storage-tuner gain evaluation on large
	// layouts.
	residual := l.QueryCosts(queries, nil, 0)
	// covers[j] lists the queries contained in candidate j (q*i ⊆ RPj).
	covers := make([][]int, len(queries))
	for j := range cands {
		for i, q := range queries {
			if cands[j].box.ContainsBox(q) {
				covers[j] = append(covers[j], i)
			}
		}
	}
	gain := func(j int) float64 {
		if cands[j].bytes <= 0 {
			return -1
		}
		var saved int64
		for _, i := range covers[j] {
			if d := residual[i] - cands[j].bytes; d > 0 {
				saved += d
			}
		}
		if saved == 0 {
			return -1
		}
		return float64(saved) / float64(cands[j].bytes)
	}
	var out layout.Extras
	remaining := budgetBytes
	for {
		bestJ, bestG := -1, 0.0
		for j := range cands {
			if cands[j].taken || cands[j].bytes > remaining || cands[j].bytes == 0 {
				continue
			}
			if g := gain(j); g > bestG {
				bestG, bestJ = g, j
			}
		}
		if bestJ < 0 {
			return out
		}
		cands[bestJ].taken = true
		remaining -= cands[bestJ].bytes
		cReplicas.Inc()
		cBytes.Add(cands[bestJ].bytes)
		gRemain.Set(remaining)
		hGain.Observe(bestG)
		out = append(out, layout.Extra{
			Box:      cands[bestJ].box,
			FullRows: cands[bestJ].bytes / data.RowBytes(),
			RowBytes: data.RowBytes(),
		})
		// Update residual costs: covered queries can now be answered from
		// the new copy.
		for _, i := range covers[bestJ] {
			if cands[bestJ].bytes < residual[i] {
				residual[i] = cands[bestJ].bytes
			}
		}
	}
}
