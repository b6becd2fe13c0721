// Package qdtree implements the greedy Qd-tree of Yang et al. (SIGMOD 2020),
// the state-of-the-art workload-aware baseline the paper compares against.
// The paper's evaluation uses this deterministic greedy variant because it
// performs comparably to the reinforcement-learning variant (§VI-A).
//
// The greedy Qd-tree recursively splits the current partition at the
// candidate cut — the lower or upper boundary of some workload query on some
// dimension — that minimises the workload's I/O cost over the resulting
// children, subject to the minimum partition size bmin, and stops when no
// cut improves the cost.
//
// Construction fans sibling subtrees out over a parbuild.Pool and reuses
// per-worker Scratch buffers in cut evaluation; the parallel build is
// deterministic (identical to the serial build) because the chosen cut of a
// node depends only on that node's rows and queries.
package qdtree

import (
	"math"
	"slices"
	"sort"

	"paw/internal/dataset"
	"paw/internal/geom"
	"paw/internal/layout"
	"paw/internal/obs"
	"paw/internal/parbuild"
)

// Params configures the build.
type Params struct {
	// MinRows is bmin in sample rows.
	MinRows int
	// Parallelism bounds the construction worker pool: 0 selects
	// runtime.GOMAXPROCS(0), 1 forces a serial build. The parallel build
	// produces a layout identical to the serial one.
	Parallelism int
	// Obs receives construction telemetry (layout.Metric* names): phase
	// timers, candidate-evaluation and accepted-cut counters, recursion
	// depth and parbuild pool activity. nil disables instrumentation; the
	// layout is byte-identical either way.
	Obs *obs.Registry
}

// Build constructs a greedy Qd-tree layout for the given workload over the
// sample rows of data. The returned layout is sealed but not routed.
func Build(data *dataset.Dataset, rows []int, domain geom.Box, queries []geom.Box, p Params) *layout.Layout {
	if p.MinRows < 1 {
		p.MinRows = 1
	}
	pool := parbuild.New(p.Parallelism)
	pool.Instrument(p.Obs)
	b := &builder{
		data:    data,
		minRows: p.MinRows,
		pool:    pool,
		scratch: make([]*Scratch, pool.Slots()),
		m:       newBuildMetrics(p.Obs),
	}
	sp := b.m.tConstruct.Start()
	root := b.split(domain, rows, queries, 0, pool.RootSlot())
	sp.End()
	if b.m.axisEval != nil {
		for _, sc := range b.scratch {
			if sc != nil {
				b.m.axisEval.Add(sc.TakeEvals())
			}
		}
	}
	sp = b.m.tSeal.Start()
	l := layout.Seal("qd-tree", root, data.RowBytes())
	sp.End()
	return l
}

type builder struct {
	data    *dataset.Dataset
	minRows int
	pool    *parbuild.Pool
	// scratch is indexed by worker slot; a slot is held by at most one
	// goroutine at a time, so entries need no locking.
	scratch []*Scratch
	m       buildMetrics
}

// buildMetrics is the optional construction telemetry; zero value = disabled
// (all methods no-op on nil instruments).
type buildMetrics struct {
	tConstruct, tSeal      *obs.Timer
	nodes, axisEval        *obs.Counter
	axisAccepted, terminal *obs.Counter
	maxDepth               *obs.Gauge
}

func newBuildMetrics(reg *obs.Registry) buildMetrics {
	if reg == nil {
		return buildMetrics{}
	}
	return buildMetrics{
		tConstruct:   reg.Timer(layout.MetricConstructNs),
		tSeal:        reg.Timer(layout.MetricSealNs),
		nodes:        reg.Counter(layout.MetricNodes),
		axisEval:     reg.Counter(layout.MetricAxisEvaluated),
		axisAccepted: reg.Counter(layout.MetricAxisAccepted),
		terminal:     reg.Counter(layout.MetricPolicyTerminal),
		maxDepth:     reg.Gauge(layout.MetricMaxDepth),
	}
}

func (b *builder) scratchFor(slot int) *Scratch {
	if sc := b.scratch[slot]; sc != nil {
		return sc
	}
	sc := NewScratch()
	b.scratch[slot] = sc
	return sc
}

// Cut is an axis-parallel split with explicit boundary ownership: records
// with value <= LeftHi go left, the rest go right. LeftHi and RightLo are
// adjacent floats, so the children's closed descriptor boxes do not overlap
// and a cut placed at a query's lower bound keeps the query fully out of the
// left child (the point of cutting there).
type Cut struct {
	Dim             int
	LeftHi, RightLo float64
}

// CutAtLower builds the cut for a query lower bound v: the boundary value
// itself belongs to the right child.
func CutAtLower(dim int, v float64) Cut {
	return Cut{Dim: dim, LeftHi: math.Nextafter(v, math.Inf(-1)), RightLo: v}
}

// CutAtUpper builds the cut for a query upper bound v: the boundary value
// itself belongs to the left child.
func CutAtUpper(dim int, v float64) Cut {
	return Cut{Dim: dim, LeftHi: v, RightLo: math.Nextafter(v, math.Inf(1))}
}

// Apply divides box into the two child boxes of the cut.
func (c Cut) Apply(box geom.Box) (left, right geom.Box) {
	left = box.Clone()
	left.Hi[c.Dim] = c.LeftHi
	right = box.Clone()
	right.Lo[c.Dim] = c.RightLo
	return left, right
}

// Inside reports whether the cut separates the interior of box at all.
func (c Cut) Inside(box geom.Box) bool {
	return c.LeftHi >= box.Lo[c.Dim] && c.RightLo <= box.Hi[c.Dim]
}

func (b *builder) split(box geom.Box, rows []int, queries []geom.Box, depth, slot int) *layout.Node {
	b.m.nodes.Inc()
	b.m.maxDepth.SetMax(int64(depth))
	if len(rows) < 2*b.minRows || len(queries) == 0 {
		b.m.terminal.Inc()
		return leaf(box, rows)
	}
	// Current (unsplit) cost: every intersecting query scans all rows.
	curCost := int64(len(queries)) * int64(len(rows))
	best, ok := BestCut(b.data, box, rows, queries, nil, b.minRows, b.scratchFor(slot))
	if !ok || best.Cost >= curCost {
		return leaf(box, rows)
	}
	b.m.axisAccepted.Inc()
	left, right := SplitRowsN(b.data, rows, best.Cut, best.LeftRows)
	lbox, rbox := best.Cut.Apply(box)
	node := &layout.Node{
		Desc:     layout.NewRect(box),
		Children: make([]*layout.Node, 2),
	}
	b.pool.Fan(slot, 2, func(i, s int) {
		if i == 0 {
			node.Children[0] = b.split(lbox, left, clipQueries(queries, lbox), depth+1, s)
		} else {
			node.Children[1] = b.split(rbox, right, clipQueries(queries, rbox), depth+1, s)
		}
	})
	return node
}

// Scratch holds the reusable buffers of cut evaluation: one dimension's
// candidate cuts, their thresholds and left-row counts, the sorted query
// bounds, and the candidate dedup set. One Scratch may be used by one
// goroutine at a time; builders keep one per parbuild worker slot so the hot
// path allocates nothing per node.
type Scratch struct {
	cands            []Cut
	thresh, qLo, qHi []float64
	le               []int
	seen             map[Cut]bool
	// evals counts the unique candidate cuts evaluated by BestCut on this
	// scratch since the last TakeEvals. Plain int64 — a scratch is
	// single-goroutine by contract — so the hot path pays one increment.
	evals int64
}

// TakeEvals returns and resets the candidate-evaluation count. Builders with
// telemetry enabled drain every worker's scratch into the Alg. 2 counter
// (layout.MetricAxisEvaluated) once construction finishes.
func (sc *Scratch) TakeEvals() int64 {
	n := sc.evals
	sc.evals = 0
	return n
}

// NewScratch returns an empty scratch; buffers grow on first use and are
// retained across calls.
func NewScratch() *Scratch {
	return &Scratch{seen: make(map[Cut]bool)}
}

// CutCost is a candidate cut with its immediate workload cost and the number
// of rows its left child receives (so callers can pre-size SplitRowsN's
// outputs without rescanning).
type CutCost struct {
	Cut      Cut
	Cost     int64
	LeftRows int
}

// BestCut finds the cost-minimising axis-parallel cut over the Qd-tree
// candidate set (query lower/upper bounds on every dimension) plus any extra
// candidate cuts, subject to both children holding at least minRows rows; of
// equally cheap cuts the first evaluated wins. sc may be nil (a temporary
// scratch is allocated).
//
// All queries must intersect box. The evaluation exploits that a cut only
// changes dimension dim: the left child intersects query q iff
// q.Lo[dim] <= LeftHi, the right child iff q.Hi[dim] >= RightLo. Query bounds
// are sorted once per dimension; rows are not sorted at all (bucketRows), so a
// dimension costs O(rows·log candidates + queries·log queries).
func BestCut(data *dataset.Dataset, box geom.Box, rows []int, queries []geom.Box, extra []Cut, minRows int, sc *Scratch) (best CutCost, ok bool) {
	if sc == nil {
		sc = NewScratch()
	}
	dims := box.Dims()
	total := len(rows)
	nq := len(queries)
	sc.qLo, sc.qHi = slices.Grow(sc.qLo[:0], nq)[:nq], slices.Grow(sc.qHi[:0], nq)[:nq]
	qLo, qHi := sc.qLo, sc.qHi
	clear(sc.seen)
	seen := sc.seen
	for dim := 0; dim < dims; dim++ {
		cands, thresh := sc.cands[:0], sc.thresh[:0]
		for _, q := range queries {
			cands = append(cands, CutAtLower(dim, q.Lo[dim]), CutAtUpper(dim, q.Hi[dim]))
		}
		for _, c := range extra {
			if c.Dim == dim {
				cands = append(cands, c)
			}
		}
		for _, c := range cands {
			if c.Inside(box) {
				thresh = append(thresh, c.LeftHi)
			}
		}
		sc.cands, sc.thresh = cands, thresh
		if len(thresh) == 0 {
			continue // no candidate on dim separates box
		}
		thresh, le := sc.bucketRows(data.Column(dim), rows)
		for i, q := range queries {
			qLo[i] = q.Lo[dim]
			qHi[i] = q.Hi[dim]
		}
		sort.Float64s(qLo)
		sort.Float64s(qHi)
		for _, c := range cands {
			if !c.Inside(box) || seen[c] {
				continue
			}
			seen[c] = true
			sc.evals++
			leftRows := le[search(thresh, c.LeftHi)]
			rightRows := total - leftRows
			if leftRows < minRows || rightRows < minRows {
				continue
			}
			nQL := countLE(qLo, c.LeftHi)       // queries reaching the left child
			nQR := nq - countLT(qHi, c.RightLo) // queries reaching the right child
			cost := int64(leftRows)*int64(nQL) + int64(rightRows)*int64(nQR)
			if !ok || cost < best.Cost {
				best, ok = CutCost{Cut: c, Cost: cost, LeftRows: leftRows}, true
			}
		}
	}
	return best, ok
}

// bucketRows sorts and dedups the thresholds in sc.thresh — the LeftHi of
// every candidate that separates the box, so none is NaN — and returns them
// with le, where le[i] counts the rows whose value on col is <= thresh[i] or
// NaN. One pass drops each row into the bucket of the first threshold it does
// not exceed — a NaN row into the first, left of every cut, as when rows were
// sorted NaN-first — and le is the prefix sums of the buckets.
func (sc *Scratch) bucketRows(col []float64, rows []int) (thresh []float64, le []int) {
	slices.Sort(sc.thresh)
	thresh = slices.Compact(sc.thresh)
	sc.le = slices.Grow(sc.le[:0], len(thresh)+1)[:len(thresh)+1]
	le = sc.le
	clear(le)
	for _, r := range rows {
		le[search(thresh, col[r])]++
	}
	for i := 1; i < len(thresh); i++ {
		le[i] += le[i-1]
	}
	return thresh, le
}

// search is sort.SearchFloat64s without its closure call per probe: the index
// of the first of the ascending, NaN-free values that is >= x, and 0 for a
// NaN x (no value is < NaN).
func search(sorted []float64, x float64) int {
	lo, n := 0, len(sorted)
	for n > 0 {
		if half := n / 2; sorted[lo+half] < x {
			lo, n = lo+half+1, n-half-1
		} else {
			n = half
		}
	}
	return lo
}

// countLE returns the number of sorted values <= x.
func countLE(sorted []float64, x float64) int {
	return sort.Search(len(sorted), func(i int) bool { return sorted[i] > x })
}

// countLT returns the number of sorted values < x.
func countLT(sorted []float64, x float64) int {
	return sort.Search(len(sorted), func(i int) bool { return sorted[i] >= x })
}

// SplitRowsN divides row indices according to the cut's boundary ownership.
// nLeft is the left child's row count, known in advance (CutCost.LeftRows),
// so both output slices are pre-sized exactly and no append reallocates.
func SplitRowsN(data *dataset.Dataset, rows []int, c Cut, nLeft int) (left, right []int) {
	if nLeft < 0 || nLeft > len(rows) {
		nLeft = 0
	}
	col := data.Column(c.Dim)
	left = make([]int, 0, nLeft)
	right = make([]int, 0, len(rows)-nLeft)
	for _, r := range rows {
		if col[r] <= c.LeftHi {
			left = append(left, r)
		} else {
			right = append(right, r)
		}
	}
	return left, right
}

func clipQueries(queries []geom.Box, box geom.Box) []geom.Box {
	var out []geom.Box
	for _, q := range queries {
		if inter, ok := q.Intersection(box); ok {
			out = append(out, inter)
		}
	}
	return out
}

func leaf(box geom.Box, rows []int) *layout.Node {
	d := layout.NewRect(box)
	return &layout.Node{Desc: d, Part: &layout.Partition{Desc: d, SampleRows: rows}}
}
