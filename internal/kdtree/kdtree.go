// Package kdtree implements the data-aware baseline of the paper's
// evaluation: a standard k-d tree partitioner that chooses split dimensions
// round-robin and splits at the median, recursing until partitions reach the
// finest admissible size [bmin, 2·bmin) (§VI-A). It ignores the query
// workload entirely, which makes it robust to workload drift but inefficient
// when workloads are focused (Fig. 1c column of Table I).
//
// Construction fans sibling subtrees out over a parbuild.Pool; the parallel
// build is deterministic (identical to the serial build) because each
// subtree's median cuts depend only on that subtree's rows.
package kdtree

import (
	"slices"
	"sort"

	"paw/internal/dataset"
	"paw/internal/geom"
	"paw/internal/layout"
	"paw/internal/obs"
	"paw/internal/parbuild"
	"paw/internal/qdtree"
)

// Params configures the build.
type Params struct {
	// MinRows is bmin expressed in sample rows: no partition may hold fewer.
	MinRows int
	// Parallelism bounds the construction worker pool: 0 selects
	// runtime.GOMAXPROCS(0), 1 forces a serial build. The parallel build
	// produces a layout identical to the serial one.
	Parallelism int
	// Obs receives construction telemetry (layout.Metric* names): phase
	// duration histograms and node/depth counters. nil disables
	// instrumentation; the layout is byte-identical either way.
	Obs *obs.Registry
}

// Build constructs a k-d tree layout over the given sample rows of data.
// domain must cover all sample rows (typically the dataset's MBR). The
// returned layout is sealed but not routed.
func Build(data *dataset.Dataset, rows []int, domain geom.Box, p Params) *layout.Layout {
	if p.MinRows < 1 {
		p.MinRows = 1
	}
	pool := parbuild.New(p.Parallelism)
	b := newBuilder(data, p.MinRows, pool)
	b.m = newBuildMetrics(p.Obs)
	sp := b.m.tConstruct.Start()
	root := b.split(domain, rows, 0, b.pool.RootSlot())
	sp.End()
	sp = b.m.tSeal.Start()
	l := layout.Seal("kd-tree", root, data.RowBytes())
	sp.End()
	return l
}

type builder struct {
	data    *dataset.Dataset
	minRows int
	pool    *parbuild.Pool
	// scratch holds one reusable median buffer per worker slot; a slot is
	// held by at most one goroutine at a time.
	scratch [][]float64
	m       buildMetrics
}

// buildMetrics is the optional construction telemetry; zero value = disabled
// (all methods no-op on nil instruments).
type buildMetrics struct {
	tConstruct, tSeal *obs.Histogram
	nodes, terminal   *obs.Counter
	maxDepth          *obs.Gauge
}

func newBuildMetrics(reg *obs.Registry) buildMetrics {
	if reg == nil {
		return buildMetrics{}
	}
	return buildMetrics{
		tConstruct: reg.Histogram(layout.MetricConstructNs, obs.LatencyBuckets()),
		tSeal:      reg.Histogram(layout.MetricSealNs, obs.LatencyBuckets()),
		nodes:      reg.Counter(layout.MetricNodes),
		terminal:   reg.Counter(layout.MetricPolicyTerminal),
		maxDepth:   reg.Gauge(layout.MetricMaxDepth),
	}
}

func newBuilder(data *dataset.Dataset, minRows int, pool *parbuild.Pool) *builder {
	return &builder{
		data:    data,
		minRows: minRows,
		pool:    pool,
		scratch: make([][]float64, pool.Slots()),
	}
}

// split recursively divides box/rows, cycling the split dimension by depth.
func (b *builder) split(box geom.Box, rows []int, depth, slot int) *layout.Node {
	b.m.nodes.Inc()
	b.m.maxDepth.SetMax(int64(depth))
	if len(rows) < 2*b.minRows {
		b.m.terminal.Inc()
		return leaf(box, rows)
	}
	dims := b.data.Dims()
	vals := slices.Grow(b.scratch[slot][:0], len(rows))[:len(rows)]
	b.scratch[slot] = vals
	// Round-robin: try the scheduled dimension first, then the rest, in
	// case the scheduled one is degenerate (all values equal).
	for off := 0; off < dims; off++ {
		dim := (depth + off) % dims
		_, cut, nLeft, ok := MedianCut(b.data.Column(dim), rows, vals)
		if !ok {
			continue
		}
		if nLeft < b.minRows || len(rows)-nLeft < b.minRows {
			continue
		}
		// Children must not overlap even on the boundary plane: the cut
		// value itself belongs to the left child ("v <= cut goes left").
		c := qdtree.CutAtUpper(dim, cut)
		left, right := qdtree.SplitRowsN(b.data, rows, c, nLeft)
		lbox, rbox := c.Apply(box)
		node := &layout.Node{
			Desc:     layout.NewRect(box),
			Children: make([]*layout.Node, 2),
		}
		b.pool.Fan(slot, 2, func(i, s int) {
			if i == 0 {
				node.Children[0] = b.split(lbox, left, depth+1, s)
			} else {
				node.Children[1] = b.split(rbox, right, depth+1, s)
			}
		})
		return node
	}
	return leaf(box, rows)
}

// MedianCut gathers col over rows into buf (len(buf) == len(rows)) and
// returns their median — the value sort.Float64s would leave at index
// len(rows)/2 — and the cut a median split places: the median, unless that is
// the maximum, which would send every row left under "v <= cut goes left";
// then the largest value below the maximum. nLeft counts the rows <= cut, NaN
// rows included (sort.Float64s puts them first). ok is false when every value
// equals the first (a degenerate dimension). A zero median or cut is +0,
// whichever zero the selection lands on. O(len(rows)) expected (Select).
func MedianCut(col []float64, rows []int, buf []float64) (median, cut float64, nLeft int, ok bool) {
	mn, mx := col[rows[0]], col[rows[0]]
	for i, r := range rows {
		v := col[r]
		buf[i] = v
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	if mn == mx {
		return 0, 0, 0, false
	}
	k := len(buf) / 2
	median = Select(buf, k) + 0 // + 0 turns -0 into +0
	cut = median
	if median == mx {
		// Select left every value below the maximum in buf[:k]; mn is one.
		cut = mn
		for _, v := range buf[:k] {
			if v < mx && v > cut {
				cut = v
			}
		}
		cut += 0
	}
	for _, v := range buf {
		if !(v > cut) {
			nLeft++
		}
	}
	return median, cut, nLeft, true
}

// Select returns the k-th smallest of vals (0-based) in sort.Float64s order,
// NaNs first, reordering vals so that vals[:k] are no larger and vals[k+1:]
// no smaller than it. It is Hoare's selection with a median-of-three pivot,
// O(len(vals)) expected; a range that keeps failing to shrink is sorted.
func Select(vals []float64, k int) float64 {
	nan := 0
	for i, v := range vals {
		if v != v {
			vals[i], vals[nan] = vals[nan], v
			nan++
		}
	}
	if k < nan {
		return vals[k]
	}
	a, k := vals[nan:], k-nan
	lo, hi := 0, len(a)-1
	for round := 0; lo < hi; round++ {
		if round == 64 {
			sort.Float64s(a[lo : hi+1])
			break
		}
		x, y, z := a[lo], a[lo+(hi-lo)/2], a[hi]
		p := max(min(x, y), min(max(x, y), z))
		i, j := lo, hi
		for i <= j {
			for a[i] < p {
				i++
			}
			for p < a[j] {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		if j < k {
			lo = i
		}
		if k < i {
			hi = j
		}
	}
	return a[k]
}

func leaf(box geom.Box, rows []int) *layout.Node {
	d := layout.NewRect(box)
	return &layout.Node{Desc: d, Part: &layout.Partition{Desc: d, SampleRows: rows}}
}

// RefineLeaf splits one box/row-set k-d style until pieces fall below
// 2·minRows, returning the subtree. PAW's data-aware optimisation (§IV-E)
// uses it to keep splitting query-free leaves to the finest size. The
// refinement runs serially: PAW's builder already parallelises across the
// leaves that call it.
func RefineLeaf(data *dataset.Dataset, box geom.Box, rows []int, minRows int, depth int) *layout.Node {
	b := newBuilder(data, minRows, nil)
	return b.split(box, rows, depth, b.pool.RootSlot())
}
