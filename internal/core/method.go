package core

import (
	"fmt"
	"math"

	"paw/internal/dataset"
	"paw/internal/geom"
	"paw/internal/kdtree"
	"paw/internal/layout"
	"paw/internal/qdtree"
	"paw/internal/workload"
)

// Method names a partitioning algorithm.
type Method string

// The partitioning methods BuildMethod knows.
const (
	// MethodPAW is the paper's contribution (§IV).
	MethodPAW Method = "paw"
	// MethodQdTree is the greedy Qd-tree baseline (Yang et al., 2020).
	MethodQdTree Method = "qd-tree"
	// MethodKdTree is the data-aware k-d tree baseline.
	MethodKdTree Method = "kd-tree"
)

// Greedy reports whether m accepts only strictly cost-decreasing splits
// (PAW's Algorithm 3 and the greedy Qd-tree): the strict form of the
// monotonicity oracle applies to its layouts.
func (m Method) Greedy() bool { return m == MethodPAW || m == MethodQdTree }

// BuildMethod is the one switch from a method name to its builder. PAW gets
// p whole; the Qd-tree cuts on hist's boxes as given (no δ extension) and the
// k-d tree ignores hist, both taking only MinRows, Parallelism and Obs from
// p. Every layout it returns records the scope it was asked for, hist and
// p.Delta, data's names and its recipe (see record), all of which its file
// carries. It is sealed but not routed; an unknown method is an error.
func BuildMethod(m Method, data *dataset.Dataset, rows []int, domain geom.Box, hist workload.Workload, p Params) (*layout.Layout, error) {
	var l *layout.Layout
	switch m {
	case MethodPAW:
		return Build(data, rows, domain, hist, p), nil // Build records its layout
	case MethodQdTree:
		l = qdtree.Build(data, rows, domain, hist.Boxes(),
			qdtree.Params{MinRows: p.MinRows, Parallelism: p.Parallelism, Obs: p.Obs})
	case MethodKdTree:
		l = kdtree.Build(data, rows, domain,
			kdtree.Params{MinRows: p.MinRows, Parallelism: p.Parallelism, Obs: p.Obs})
	default:
		return nil, fmt.Errorf("unknown method %q (want %s, %s or %s)", m, MethodPAW, MethodQdTree, MethodKdTree)
	}
	record(l, data, rows, hist, p)
	return l, nil
}

// record sets on l the scope it was built for, data's column names and the
// recipe: bmin in sample rows, as the builders apply it, and the share of
// data's rows the sample holds. An empty sample records no recipe.
func record(l *layout.Layout, data *dataset.Dataset, rows []int, hist workload.Workload, p Params) {
	l.Delta, l.Hist, l.Names = p.Delta, hist.Boxes(), data.Names()
	if len(rows) > 0 {
		l.MinRows, l.SampleRate = max(p.MinRows, 1), float64(len(rows))/float64(data.NumRows())
	}
}

// Rebuild builds data within box for hist with the recipe from carries — its
// method, a stride sample of data's rows at its sampling rate, its bmin and δ
// — and the §IV-E refinement, then routes every row of data through the
// result for exact FullRows; a row it cannot route is an error. Drift rebuilds
// a region with it from the rows the region's holders return, and an offline
// reference is the same call on the whole dataset over the whole domain, so
// both partition at from's grain.
func Rebuild(from *layout.Layout, data *dataset.Dataset, box geom.Box, hist workload.Workload) (*layout.Layout, error) {
	if err := from.CheckRecipe(); err != nil {
		return nil, err
	}
	n := data.NumRows()
	if n == 0 {
		return nil, fmt.Errorf("rebuild over no rows")
	}
	k := max(1, int(math.Round(from.SampleRate*float64(n))))
	stride, sample := float64(n)/float64(k), make([]int, k)
	for i := range sample {
		sample[i] = int(float64(i) * stride)
	}
	l, err := BuildMethod(Method(from.Method), data, sample, box, hist, Params{
		MinRows:         from.MinRows,
		Delta:           from.Delta,
		DataAwareRefine: true,
	})
	if err != nil {
		return nil, err
	}
	routed := 0
	for id, part := range l.RouteIndices(data) {
		l.Parts[id].FullRows = int64(len(part))
		routed += len(part)
	}
	if routed < n {
		return nil, fmt.Errorf("rebuilt layout routes %d of %d rows", routed, n)
	}
	return l, nil
}
