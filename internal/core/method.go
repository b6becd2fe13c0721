package core

import (
	"fmt"

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
// p.Delta, and data's column names, which its file carries. The layout is
// sealed but not routed; an unknown method is an error.
func BuildMethod(m Method, data *dataset.Dataset, rows []int, domain geom.Box, hist workload.Workload, p Params) (*layout.Layout, error) {
	var l *layout.Layout
	switch m {
	case MethodPAW:
		l = Build(data, rows, domain, hist, p)
	case MethodQdTree:
		l = qdtree.Build(data, rows, domain, hist.Boxes(),
			qdtree.Params{MinRows: p.MinRows, Parallelism: p.Parallelism, Obs: p.Obs})
	case MethodKdTree:
		l = kdtree.Build(data, rows, domain,
			kdtree.Params{MinRows: p.MinRows, Parallelism: p.Parallelism, Obs: p.Obs})
	default:
		return nil, fmt.Errorf("unknown method %q (want %s, %s or %s)", m, MethodPAW, MethodQdTree, MethodKdTree)
	}
	l.Delta, l.Hist, l.Names = p.Delta, hist.Boxes(), data.Names()
	return l, nil
}
