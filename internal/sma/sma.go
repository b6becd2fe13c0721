// Package sma implements small materialized aggregates (Moerkotte, VLDB'98):
// per-block min/max/count/sum statistics kept for every dimension, used to
// prune blocks that cannot contain query results (§II-B). The min-max
// aggregate is the pruning predicate used by the columnar row-group store.
package sma

import (
	"math"

	"paw/internal/dataset"
	"paw/internal/geom"
)

// Aggregates holds the per-dimension statistics of one block of records.
type Aggregates struct {
	Count         int64
	Min, Max, Sum []float64
}

// Compute builds aggregates over the given rows of data (all rows when rows
// is nil).
func Compute(data *dataset.Dataset, rows []int) Aggregates {
	dims := data.Dims()
	a := Aggregates{
		Min: make([]float64, dims),
		Max: make([]float64, dims),
		Sum: make([]float64, dims),
	}
	for d := 0; d < dims; d++ {
		a.Min[d] = math.Inf(1)
		a.Max[d] = math.Inf(-1)
	}
	visit := func(i int) {
		a.Count++
		for d := 0; d < dims; d++ {
			v := data.At(i, d)
			if v < a.Min[d] {
				a.Min[d] = v
			}
			if v > a.Max[d] {
				a.Max[d] = v
			}
			a.Sum[d] += v
		}
	}
	if rows == nil {
		for i := 0; i < data.NumRows(); i++ {
			visit(i)
		}
	} else {
		for _, i := range rows {
			visit(i)
		}
	}
	return a
}

// Empty reports whether the block holds no records.
func (a Aggregates) Empty() bool { return a.Count == 0 }

// CanPrune reports whether the min-max envelope proves the block holds no
// record inside q, so the block can be skipped. It and DimCovered take a
// pointer: a scan asks them once per row group and per column, and the
// 80-byte struct is not worth a copy each time.
func (a *Aggregates) CanPrune(q geom.Box) bool {
	if a.Empty() {
		return true
	}
	for d := range a.Min {
		if a.Max[d] < q.Lo[d] || a.Min[d] > q.Hi[d] {
			return true
		}
	}
	return false
}

// DimCovered reports whether the block's envelope on dimension d lies
// entirely inside the query's range on d: every record in the block then
// satisfies the predicate on d, so a columnar scan can skip evaluating that
// column (the covered-column shortcut of the vectorized kernels).
func (a *Aggregates) DimCovered(d int, q geom.Box) bool {
	return a.Min[d] >= q.Lo[d] && a.Max[d] <= q.Hi[d]
}

// Merge combines two aggregates into the aggregates of the union block.
func Merge(x, y Aggregates) Aggregates {
	if x.Empty() {
		return y
	}
	if y.Empty() {
		return x
	}
	out := Aggregates{
		Count: x.Count + y.Count,
		Min:   make([]float64, len(x.Min)),
		Max:   make([]float64, len(x.Max)),
		Sum:   make([]float64, len(x.Sum)),
	}
	for d := range x.Min {
		out.Min[d] = math.Min(x.Min[d], y.Min[d])
		out.Max[d] = math.Max(x.Max[d], y.Max[d])
		out.Sum[d] = x.Sum[d] + y.Sum[d]
	}
	return out
}
