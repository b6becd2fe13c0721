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
	"math"
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
// returned layout is sealed but not routed, and holds no rows. Like
// core.Build it builds on the sample gathered into dense columns
// (dataset.Gather).
func Build(data *dataset.Dataset, rows []int, domain geom.Box, p Params) *layout.Layout {
	if p.MinRows < 1 {
		p.MinRows = 1
	}
	m := newBuildMetrics(p.Obs)
	sp := m.tConstruct.Start()
	pool := parbuild.New(p.Parallelism)
	sample, local := data.Gather(rows, pool.Workers())
	b := newBuilder(sample, p.MinRows, pool, nil)
	b.m = m
	root := b.split(domain, nil, local, 0, b.pool.RootSlot())
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
	// scratch holds one reusable median buffer per worker slot, and moved
	// one buffer of the rows a split sends right; a slot is held by at most
	// one goroutine at a time.
	scratch [][]float64
	moved   [][]int
	m       buildMetrics
	leaves  *layout.LeafRows // each leaf's rows, for tests; nil in a build
	// irregular marks the refinement of an irregular region (RefineLeaf):
	// every node is its box minus the region's holes inside it.
	irregular bool
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

func newBuilder(data *dataset.Dataset, minRows int, pool *parbuild.Pool, leaves *layout.LeafRows) *builder {
	return &builder{
		data:    data,
		minRows: minRows,
		pool:    pool,
		scratch: make([][]float64, pool.Slots()),
		moved:   make([][]int, pool.Slots()),
		leaves:  leaves,
	}
}

// split recursively divides box/rows, cycling the split dimension by depth;
// holes are the irregular region's holes inside box.
func (b *builder) split(box geom.Box, holes []geom.Box, rows []int, depth, slot int) *layout.Node {
	b.m.nodes.Inc()
	b.m.maxDepth.SetMax(int64(depth))
	desc := layout.Descriptor(layout.NewRect(box))
	if b.irregular {
		desc = layout.NewIrregular(box, holes)
	}
	if len(rows) < 2*b.minRows {
		b.m.terminal.Inc()
		return b.leaves.Leaf(desc, rows)
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
		left, right := b.splitRows(rows, c, slot)
		lbox, rbox := c.Apply(box)
		node := &layout.Node{Desc: desc, Children: make([]*layout.Node, 2)}
		b.pool.Fan(slot, 2, func(i, s int) {
			if i == 0 {
				node.Children[0] = b.split(lbox, qdtree.ClipBoxes(holes, lbox), left, depth+1, s)
			} else {
				node.Children[1] = b.split(rbox, qdtree.ClipBoxes(holes, rbox), right, depth+1, s)
			}
		})
		return node
	}
	return b.leaves.Leaf(desc, rows)
}

// splitRows divides rows in place at the cut's boundary, each side keeping its
// order, and returns the two sides: the rows at most c.LeftHi on c.Dim, then
// the rest (NaNs among them). The rows that go right wait in the slot's moved
// buffer while the others close up.
func (b *builder) splitRows(rows []int, c qdtree.Cut, slot int) (left, right []int) {
	col := b.data.Column(c.Dim)
	moved, l := b.moved[slot][:0], 0
	for _, r := range rows {
		if col[r] <= c.LeftHi {
			rows[l] = r
			l++
		} else {
			moved = append(moved, r)
		}
	}
	copy(rows[l:], moved)
	b.moved[slot] = moved
	return rows[:l:l], rows[l:]
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
// no smaller than it. Each round splits the range around a median-of-three
// pivot p by a Lomuto pass that does not branch on the values (lomuto): the
// values below p to the front. When none is below p, p is the range's least
// value and a second pass splits off its copies, the values below the next
// float up. O(len(vals)) expected; a range that keeps failing to shrink (an
// all +Inf one among them) is sorted.
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
	lo, hi := 0, len(a)
	for round := 0; hi-lo > 1; round++ {
		if round == 64 {
			sort.Float64s(a[lo:hi])
			break
		}
		x, y, z := a[lo], a[lo+(hi-lo)/2], a[hi-1]
		p := max(min(x, y), min(max(x, y), z))
		mid := lo + lomuto(a[lo:hi], p)
		if mid == lo {
			if mid += lomuto(a[lo:hi], math.Nextafter(p, math.Inf(1))); k < mid {
				return a[k] // a[lo:mid] all equal p
			}
		}
		if k < mid {
			hi = mid
		} else {
			lo = mid
		}
	}
	return a[k]
}

// lomuto moves the values of a below p to its front and returns how many
// there are. Each step swaps the next value into the boundary slot and
// advances the boundary by the comparison's outcome, so the loop has no
// branch that depends on the values.
func lomuto(a []float64, p float64) int {
	i := 0
	for j, v := range a {
		a[j], a[i] = a[i], v
		i += b2i(v < p)
	}
	return i
}

// b2i is 1 for true and 0 for false; the compiler lowers it to a flag move,
// not a jump.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// RefineLeaf splits the region of a leaf descriptor k-d style until pieces
// fall below 2·minRows, returning the subtree and recording its leaves' rows
// of data in leaves. PAW's data-aware optimisation (§IV-E) uses it on PAW's
// gathered sample to split query-free leaves and irregular remainders to the
// finest size: an Irregular region is cut by its outer box, and every node
// keeps the irregular semantics, its box minus the holes inside it, so a
// partially intersecting query scans one small cell, not the remainder. It
// fans out on pool from the caller's slot.
func RefineLeaf(data *dataset.Dataset, pool *parbuild.Pool, slot int, desc layout.Descriptor, rows []int, minRows int, leaves *layout.LeafRows) *layout.Node {
	b := newBuilder(data, minRows, pool, leaves)
	if ir, ok := desc.(layout.Irregular); ok {
		b.irregular = true
		return b.split(ir.Outer, ir.Holes, rows, 0, slot)
	}
	return b.split(desc.MBR(), nil, rows, 0, slot)
}
