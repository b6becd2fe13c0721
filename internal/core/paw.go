// Package core implements PAW — Partitioning Aware of Workload variance —
// the paper's primary contribution. Construction proceeds per §IV:
//
//  1. The historical workload QH is generalised to the worst-case workload
//     Q*F by extending every query by δ in all directions (§IV-A; Lemma 1
//     proves optimising against Q*F optimises the worst case over all
//     δ-similar future workloads).
//  2. PAW-Construction (Alg. 3) recursively splits partitions, choosing at
//     every step the split function allowed by the policy Ψ (Eq. 4) that
//     minimises Cost(P', Q*F(Po)):
//     — Multi-Group Split (Alg. 1) groups mutually intersecting queries,
//     carves one grouped rectangular partition (GP) per group — expanded
//     to reach the minimum size bmin (Fig. 8) — and collects the leftover
//     records in a single irregular-shaped partition (IP);
//     — Axis-Parallel Split (Alg. 2) splits at query boundaries (the
//     Qd-tree candidate cuts) or at the median of each dimension.
//  3. Optionally (§IV-E), query-free leaves are refined data-aware, k-d
//     style, down to the finest size [bmin, 2bmin), so that PAW degrades
//     gracefully to k-d tree behaviour on fully unpredictable workloads.
//
// Construction is parallel: sibling subtrees of every split fan out over a
// bounded parbuild.Pool, and a large node evaluates its two split families,
// expands its groups and sweeps its rows concurrently. The result is
// deterministic — byte-identical to the serial build — because every
// per-node decision depends only on that node's rows and queries, results
// are assembled by index, and chunked sweeps merge in chunk order.
package core

import (
	"math"
	"slices"
	"sort"

	"paw/internal/dataset"
	"paw/internal/geom"
	"paw/internal/kdtree"
	"paw/internal/layout"
	"paw/internal/obs"
	"paw/internal/parbuild"
	"paw/internal/qdtree"
	"paw/internal/workload"
)

// Params configures PAW construction.
type Params struct {
	// MinRows is bmin expressed in sample rows.
	MinRows int
	// Alpha is the Ψ-policy constant α (Eq. 4): Multi-Group Split is
	// attempted only on partitions holding at least Alpha·MinRows rows.
	// Must be > 1; defaults to 8.
	Alpha float64
	// Delta is the workload-variance threshold δ in absolute units of the
	// query space. Queries are extended by Delta on every side to form Q*F.
	// Zero reproduces the paper's §VI-G special case (exact workload).
	Delta float64
	// DataAwareRefine enables the §IV-E optimisation: leaves that intersect
	// no extended query are k-d split to the finest size so partially
	// intersecting future queries do not scan huge blocks.
	DataAwareRefine bool
	// DisableMultiGroup turns Multi-Group Split off (rectangles only).
	// Used by the ablation study; the default (false) is full PAW.
	DisableMultiGroup bool
	// Parallelism bounds the construction worker pool: 0 selects
	// runtime.GOMAXPROCS(0), 1 forces a serial build. Any value produces
	// the same layout; Parallelism only trades build time for cores.
	Parallelism int
	// Obs receives construction telemetry: per-phase duration histograms,
	// Alg. 1/2 split statistics, Ψ(α) policy decisions and bmin expansions
	// (metric names in internal/layout's Metric* constants). nil
	// disables instrumentation; the built layout is byte-identical either
	// way — instruments only observe, they never feed back into decisions.
	Obs *obs.Registry
}

func (p Params) withDefaults() Params {
	if p.MinRows < 1 {
		p.MinRows = 1
	}
	if p.Alpha <= 1 {
		p.Alpha = 8
	}
	return p
}

// Build constructs a PAW layout for the historical workload hist over the
// given sample rows of data. domain must cover the sample rows (typically
// the dataset MBR). The returned layout is sealed but not routed, and records
// the scope it was built for, p.Delta and hist, which the block store tiles
// its partitions for (layout.ExtendedHist), data's names and its recipe.
//
// The sample is gathered into dense columns once and built on as rows
// 0…len(rows)−1 of that copy, so no pass reads rows scattered over data.
// The layout holds no rows: the builder drops each node's rows with it.
func Build(data *dataset.Dataset, rows []int, domain geom.Box, hist workload.Workload, p Params) *layout.Layout {
	p = p.withDefaults()
	ext := hist.Extend(p.Delta)
	// Clip the worst-case workload to the domain: the parts of extended
	// queries outside the data space contain no records and would only
	// distort group MBRs.
	queries := qdtree.ClipBoxes(ext.Boxes(), domain)
	m := newBuildMetrics(p.Obs)
	sp := m.tConstruct.Start()
	pool := parbuild.New(p.Parallelism)
	sample, local := data.Gather(rows, pool.Workers())
	b := newBuilder(sample, p, pool, m)
	root := b.construct(domain, local, queries, 0, b.pool.RootSlot())
	sp.End()
	b.flushScratchStats()
	sp = b.m.tSeal.Start()
	l := layout.Seal("paw", root, data.RowBytes())
	record(l, data, rows, hist, p)
	sp.End()
	return l
}

// parMinRows is the node size in sample rows below which a node's own work —
// evaluating its two split families, expanding its groups, sweeping its rows
// into them — is not worth fanning out across workers.
const parMinRows = 2048

type builder struct {
	// data is the gathered sample (dataset.Gather): the rows every node
	// holds are its row indices.
	data *dataset.Dataset
	p    Params
	pool *parbuild.Pool
	// cols caches the sample's contiguous column slices so hot loops probe
	// cols[d][r] directly instead of calling data.At per (row, dim) pair.
	cols [][]float64
	// scratch is indexed by parbuild worker slot; a slot is held by at most
	// one goroutine at a time, so entries need no locking.
	scratch []*buildScratch
	// m is the optional construction telemetry; the zero value (all-nil
	// instruments) disables it with no allocations on any path.
	m      buildMetrics
	leaves *layout.LeafRows // each leaf's rows, for the tests; nil in a build
}

// buildMetrics bundles the construction instruments. All fields are nil when
// telemetry is disabled; every method call then no-ops on the nil receiver.
type buildMetrics struct {
	tConstruct, tSeal, tMulti, tAxis, tRefine   *obs.Histogram
	multiTried, multiAccepted                   *obs.Counter
	axisEval, axisAccepted                      *obs.Counter
	expansions, expandFail                      *obs.Counter
	policyMulti, policyAxisOnly, policyTerminal *obs.Counter
	nodes, refineCalls                          *obs.Counter
	maxDepth                                    *obs.Gauge
}

func newBuildMetrics(reg *obs.Registry) buildMetrics {
	if reg == nil {
		return buildMetrics{}
	}
	return buildMetrics{
		tConstruct:     reg.Histogram(layout.MetricConstructNs, obs.LatencyBuckets()),
		tSeal:          reg.Histogram(layout.MetricSealNs, obs.LatencyBuckets()),
		tMulti:         reg.Histogram(layout.MetricMultiNs, obs.LatencyBuckets()),
		tAxis:          reg.Histogram(layout.MetricAxisNs, obs.LatencyBuckets()),
		tRefine:        reg.Histogram(layout.MetricRefineNs, obs.LatencyBuckets()),
		multiTried:     reg.Counter(layout.MetricMultiTried),
		multiAccepted:  reg.Counter(layout.MetricMultiAccepted),
		axisEval:       reg.Counter(layout.MetricAxisEvaluated),
		axisAccepted:   reg.Counter(layout.MetricAxisAccepted),
		expansions:     reg.Counter(layout.MetricExpansions),
		expandFail:     reg.Counter(layout.MetricExpansionFailures),
		policyMulti:    reg.Counter(layout.MetricPolicyMultiAdmitted),
		policyAxisOnly: reg.Counter(layout.MetricPolicyAxisOnly),
		policyTerminal: reg.Counter(layout.MetricPolicyTerminal),
		nodes:          reg.Counter(layout.MetricNodes),
		refineCalls:    reg.Counter(layout.MetricRefineCalls),
		maxDepth:       reg.Gauge(layout.MetricMaxDepth),
	}
}

// buildScratch is the per-worker reusable memory of the construction hot
// paths.
type buildScratch struct {
	// qd backs qdtree cut evaluation (sorted values, bounds, dedup set).
	qd *qdtree.Scratch
	// fs is the float buffer of median selection and of expandToMin's rank
	// heap.
	fs []float64
	// assign is the per-row group-index buffer of multiGroupSplit.
	assign []int32
}

func newBuilder(data *dataset.Dataset, p Params, pool *parbuild.Pool, m buildMetrics) *builder {
	cols := make([][]float64, data.Dims())
	for d := range cols {
		cols[d] = data.Column(d)
	}
	return &builder{
		data:    data,
		p:       p,
		pool:    pool,
		cols:    cols,
		scratch: make([]*buildScratch, pool.Slots()),
		m:       m,
	}
}

// flushScratchStats folds the per-worker scratch counters (Alg. 2 candidate
// evaluations accumulated inside qdtree.BestCut) into the registry. Called
// once after construction; a disabled build has nothing to flush.
func (b *builder) flushScratchStats() {
	if b.m.axisEval == nil {
		return
	}
	for _, sc := range b.scratch {
		if sc != nil && sc.qd != nil {
			b.m.axisEval.Add(sc.qd.TakeEvals())
		}
	}
}

func (b *builder) scratchFor(slot int) *buildScratch {
	if sc := b.scratch[slot]; sc != nil {
		return sc
	}
	sc := &buildScratch{qd: qdtree.NewScratch()}
	b.scratch[slot] = sc
	return sc
}

func (sc *buildScratch) floats(n int) []float64 {
	if cap(sc.fs) < n {
		sc.fs = make([]float64, n)
	}
	sc.fs = sc.fs[:n]
	return sc.fs
}

func (sc *buildScratch) assignBuf(n int) []int32 {
	if cap(sc.assign) < n {
		sc.assign = make([]int32, n)
	}
	sc.assign = sc.assign[:n]
	return sc.assign
}

// rowIn reports whether row r lies inside box, probing the cached column
// slices directly.
func rowIn(cols [][]float64, r int, box geom.Box) bool {
	for d, col := range cols {
		v := col[r]
		if v < box.Lo[d] || v > box.Hi[d] {
			return false
		}
	}
	return true
}

// construct is PAW-Construction (Alg. 3). queries are the extended queries
// clipped to box; rows are the sample rows inside box. depth is the
// recursion depth (telemetry only); slot identifies the executing worker's
// scratch (parbuild slot).
func (b *builder) construct(box geom.Box, rows []int, queries []geom.Box, depth, slot int) *layout.Node {
	b.m.nodes.Inc()
	b.m.maxDepth.SetMax(int64(depth))
	if len(queries) == 0 {
		return b.refine(layout.NewRect(box), rows, slot)
	}
	size := len(rows)
	tryMulti := !b.p.DisableMultiGroup && float64(size) >= b.p.Alpha*float64(b.p.MinRows)
	tryAxis := size >= 2*b.p.MinRows
	if !tryAxis {
		// Ψ(Po) = ∅: below 2·bmin nothing can be split.
		b.m.policyTerminal.Inc()
		return b.leaves.Leaf(layout.NewRect(box), rows)
	}
	// Ψ(α) decision (Eq. 4): which split set this node is offered.
	if tryMulti {
		b.m.policyMulti.Inc()
	} else {
		b.m.policyAxisOnly.Inc()
	}

	// The two split families read the same rows and queries and write
	// nothing shared, so on a large node they are evaluated concurrently.
	var rMulti, rAxis *splitResult
	families := 1
	if tryMulti {
		families = 2
	}
	b.fan(slot, size, families, func(i, s int) {
		if i == 1 {
			sp := b.m.tMulti.Start()
			rMulti = b.multiGroupSplit(box, rows, queries, s)
			sp.End()
			b.m.multiTried.Inc()
			return
		}
		sp := b.m.tAxis.Start()
		rAxis = b.axisSplit(box, rows, queries, s)
		sp.End()
	})
	curCost := int64(len(queries)) * int64(size)
	var best *splitResult
	bestIsMulti := false
	if rMulti != nil && rMulti.cost < curCost {
		best = rMulti
		bestIsMulti = true
	}
	if rAxis != nil && rAxis.cost < curCost {
		if best == nil || rAxis.cost < best.cost {
			best = rAxis
			bestIsMulti = false
		}
	}
	if best == nil {
		return b.leaves.Leaf(layout.NewRect(box), rows)
	}
	if bestIsMulti {
		b.m.multiAccepted.Inc()
	} else {
		b.m.axisAccepted.Inc()
	}

	node := &layout.Node{
		Desc:     layout.NewRect(box),
		Children: make([]*layout.Node, len(best.pieces)),
	}
	// Sibling subtrees are independent; fan them out to free workers and
	// assemble by index so child order matches the serial build exactly.
	b.pool.Fan(slot, len(best.pieces), func(i, s int) {
		pc := best.pieces[i]
		if pc.irregular {
			// Irregular partitions terminate: they intersect no query in
			// Q*F(Po), so their cost is already 0 (§IV-D).
			node.Children[i] = b.refine(pc.desc, pc.rows, s)
		} else {
			node.Children[i] = b.construct(pc.box, pc.rows, qdtree.ClipBoxes(queries, pc.box), depth+1, s)
		}
	})
	return node
}

// fan runs task(0..n-1) through the pool on a node of at least parMinRows
// rows, and in order on the caller's slot below that.
func (b *builder) fan(slot, rows, n int, task func(i, slot int)) {
	if rows < parMinRows {
		for i := 0; i < n; i++ {
			task(i, slot)
		}
		return
	}
	b.pool.Fan(slot, n, task)
}

// piece is one candidate partition produced by a split function.
type piece struct {
	desc      layout.Descriptor
	box       geom.Box // recursion box for rectangular pieces
	rows      []int
	irregular bool
}

type splitResult struct {
	pieces []piece
	cost   int64
}

// computeCost evaluates Cost(P', Q*F(Po)) of the candidate pieces through
// layout.CostRows, which indexes the query set on large nodes (many groups ×
// many queries) and falls back to the quadratic loop on small ones.
func (r *splitResult) computeCost(queries []geom.Box) {
	pieces := make([]layout.Piece, len(r.pieces))
	for i, pc := range r.pieces {
		pieces[i] = layout.Piece{Desc: pc.desc, Rows: len(pc.rows)}
	}
	r.cost = layout.CostRows(pieces, queries)
}

// multiGroupSplit is Algorithm 1. It returns nil on a failed split: grouped
// partitions overlap after expansion, or the irregular remainder is below
// bmin.
func (b *builder) multiGroupSplit(box geom.Box, rows []int, queries []geom.Box, slot int) *splitResult {
	groups := groupIntersecting(queries)
	if len(groups) == 0 {
		return nil
	}
	// Build one grouped partition per group, expanding to bmin (Fig. 8).
	// Groups expand independently, every one of them, so the expansion
	// counters read the same at every Parallelism.
	gpBoxes := make([]geom.Box, len(groups))
	fits := make([]bool, len(groups))
	b.fan(slot, len(rows), len(groups), func(gi, s int) {
		member := make([]geom.Box, len(groups[gi]))
		for i, qi := range groups[gi] {
			member[i] = queries[qi]
		}
		gpBoxes[gi], fits[gi] = b.expandToMin(box, rows, geom.MBR(member...), b.scratchFor(s))
	})
	if slices.Contains(fits, false) {
		return nil
	}
	// Grouped partitions must be mutually disjoint (Alg. 1 line 7). Shared
	// boundary planes are tolerated — routing resolves record ownership —
	// but interior overlap fails the split.
	for i := range gpBoxes {
		for j := i + 1; j < len(gpBoxes); j++ {
			if inter, ok := gpBoxes[i].Intersection(gpBoxes[j]); ok && inter.Volume() > 0 {
				return nil
			}
		}
	}
	// Assign rows: first matching GP wins; the rest go to the irregular
	// partition. The sweep records a group index per row (ng = irregular)
	// so the output slices can be allocated exactly once at final size; on
	// big nodes it additionally runs chunked across workers — per-row
	// results are independent and chunks merge in order, so the outcome is
	// identical to the serial sweep.
	ng := len(gpBoxes)
	assign := b.scratchFor(slot).assignBuf(len(rows))
	counts := make([]int, ng+1)
	sweep := func(lo, hi int, counts []int) {
		for i := lo; i < hi; i++ {
			r := rows[i]
			g := ng
			for gi := range gpBoxes {
				if rowIn(b.cols, r, gpBoxes[gi]) {
					g = gi
					break
				}
			}
			assign[i] = int32(g)
			counts[g]++
		}
	}
	if b.pool.Workers() > 1 && len(rows) >= parMinRows {
		chunkCounts := make([][]int, b.pool.Workers())
		nChunks := b.pool.FanChunks(slot, len(rows), parMinRows/2, func(c, lo, hi, s int) {
			cc := make([]int, ng+1)
			sweep(lo, hi, cc)
			chunkCounts[c] = cc
		})
		for c := 0; c < nChunks; c++ {
			for g, n := range chunkCounts[c] {
				counts[g] += n
			}
		}
	} else {
		sweep(0, len(rows), counts)
	}
	// Size constraints: every GP and the IP must reach bmin. Checking the
	// counts before materialising the row slices keeps failed splits
	// allocation-free.
	for _, c := range counts {
		if c < b.p.MinRows {
			return nil
		}
	}
	gpRows := make([][]int, ng)
	for gi := range gpRows {
		gpRows[gi] = make([]int, 0, counts[gi])
	}
	ipRows := make([]int, 0, counts[ng])
	for i, r := range rows {
		if g := int(assign[i]); g < ng {
			gpRows[g] = append(gpRows[g], r)
		} else {
			ipRows = append(ipRows, r)
		}
	}
	ipDesc := layout.NewIrregular(box, gpBoxes)
	res := &splitResult{pieces: make([]piece, 0, ng+1)}
	for gi, gb := range gpBoxes {
		res.pieces = append(res.pieces, piece{desc: layout.NewRect(gb), box: gb, rows: gpRows[gi]})
	}
	res.pieces = append(res.pieces, piece{desc: ipDesc, rows: ipRows, irregular: true})
	res.computeCost(queries)
	return res
}

// expandToMin grows gp about its center until it holds at least MinRows of
// the parent's rows (Fig. 8): records are ranked by their relative position
// F_GP(x) and the expansion factor is the MinRows-th smallest rank. Returns
// false when even the whole parent cannot supply MinRows rows.
func (b *builder) expandToMin(box geom.Box, rows []int, gp geom.Box, sc *buildScratch) (geom.Box, bool) {
	gp = gp.Clip(box)
	inside := 0
	for _, r := range rows {
		if rowIn(b.cols, r, gp) {
			if inside++; inside >= b.p.MinRows {
				return gp, true
			}
		}
	}
	if len(rows) < b.p.MinRows {
		b.m.expandFail.Inc()
		return gp, false
	}
	b.m.expansions.Inc()
	// Degenerate dimensions (zero radius) can never grow by scaling; give
	// them a hair of radius relative to the parent's extent so the ranking
	// remains finite.
	c := gp.Center()
	rad := gp.Radius()
	for d := range rad {
		if rad[d] == 0 {
			ext := box.Hi[d] - box.Lo[d]
			if ext == 0 {
				continue // parent degenerate too: distance 0 for all rows
			}
			rad[d] = 1e-9 * ext
		}
	}
	rank := func(r int) float64 {
		f := 0.0
		for d := range c {
			num := math.Abs(b.cols[d][r] - c[d])
			if rad[d] > 0 {
				if q := num / rad[d]; q > f {
					f = q
				}
			} else if num > 0 {
				f = 1e308
			}
		}
		return f
	}
	// A max-heap keeps the MinRows smallest ranks seen, the first MinRows
	// rows' to begin with. With its top at T, a row with |x_d - c_d| > T·r_d
	// on some dimension of positive radius ranks at least T and cannot change
	// the top: it is skipped without dividing. lim is T with a margin that
	// covers the rounding of both sides.
	heap := sc.floats(b.p.MinRows)
	for i, r := range rows[:len(heap)] {
		heap[i] = rank(r)
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		siftDown(heap, i)
	}
	lim := heap[0] * (1 + 1e-12)
next:
	for _, r := range rows[len(heap):] {
		for d, rd := range rad {
			if rd > 0 && math.Abs(b.cols[d][r]-c[d]) > lim*rd {
				continue next
			}
		}
		if f := rank(r); f < heap[0] {
			heap[0] = f
			siftDown(heap, 0)
			lim = heap[0] * (1 + 1e-12)
		}
	}
	factor := heap[0]
	if factor < 1 {
		factor = 1
	}
	if factor >= 1e308 {
		b.m.expandFail.Inc()
		return gp, false
	}
	grown := geom.Box{Lo: make(geom.Point, len(c)), Hi: make(geom.Point, len(c))}
	for d := range c {
		grown.Lo[d] = c[d] - factor*rad[d]
		grown.Hi[d] = c[d] + factor*rad[d]
	}
	return grown.Clip(box), true
}

// siftDown moves h[i] down until the subtree at i is a max-heap, its two
// child subtrees being heaps already.
func siftDown(h []float64, i int) {
	for c := 2*i + 1; c < len(h); i, c = c, 2*c+1 {
		if c+1 < len(h) && h[c+1] > h[c] {
			c++
		}
		if h[i] >= h[c] {
			return
		}
		h[i], h[c] = h[c], h[i]
	}
}

// axisSplit is Algorithm 2: the best axis-parallel split among the median
// of every dimension and the query-boundary cuts of the Qd-tree.
func (b *builder) axisSplit(box geom.Box, rows []int, queries []geom.Box, slot int) *splitResult {
	sc := b.scratchFor(slot)
	cc, ok := qdtree.BestCut(b.data, box, rows, queries, b.medianCuts(box, rows, sc), b.p.MinRows, sc.qd)
	if !ok {
		return nil
	}
	left, right := qdtree.SplitRowsN(b.data, rows, cc.Cut, cc.LeftRows)
	lbox, rbox := cc.Cut.Apply(box)
	return &splitResult{
		cost: cc.Cost,
		pieces: []piece{
			{desc: layout.NewRect(lbox), box: lbox, rows: left},
			{desc: layout.NewRect(rbox), box: rbox, rows: right},
		},
	}
}

// medianCuts returns one cut per dimension at the median of the rows
// (kdtree.MedianCut's median, not its cut), filling the scratch buffer instead
// of allocating and skipping degenerate dimensions (all values equal).
func (b *builder) medianCuts(box geom.Box, rows []int, sc *buildScratch) []qdtree.Cut {
	if len(rows) == 0 {
		return nil
	}
	var out []qdtree.Cut
	vals := sc.floats(len(rows))
	for dim := 0; dim < b.data.Dims(); dim++ {
		m, _, _, ok := kdtree.MedianCut(b.cols[dim], rows, vals)
		if c := qdtree.CutAtUpper(dim, m); ok && c.Inside(box) {
			out = append(out, c)
		}
	}
	return out
}

// refine finalises a leaf no extended query intersects: a query-free box or
// an irregular remainder (§IV-D, its cost is 0). With DataAwareRefine on, it
// is k-d split to the finest size (§IV-E), an irregular one into cells that
// keep its holes.
func (b *builder) refine(desc layout.Descriptor, rows []int, slot int) *layout.Node {
	if !b.p.DataAwareRefine || len(rows) < 2*b.p.MinRows {
		return b.leaves.Leaf(desc, rows)
	}
	b.m.refineCalls.Inc()
	defer b.m.tRefine.Start().End()
	return kdtree.RefineLeaf(b.data, b.pool, slot, desc, rows, b.p.MinRows, b.leaves)
}

// groupIntersecting unions queries into groups of transitively intersecting
// queries (union–find), returning index groups.
func groupIntersecting(queries []geom.Box) [][]int {
	parent := make([]int, len(queries))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := range queries {
		for j := i + 1; j < len(queries); j++ {
			if queries[i].Intersects(queries[j]) {
				ri, rj := find(i), find(j)
				if ri != rj {
					parent[ri] = rj
				}
			}
		}
	}
	byRoot := make(map[int][]int)
	for i := range queries {
		r := find(i)
		byRoot[r] = append(byRoot[r], i)
	}
	// Deterministic order: by smallest member index.
	roots := make([]int, 0, len(byRoot))
	for r := range byRoot {
		roots = append(roots, byRoot[r][0])
	}
	sort.Ints(roots)
	out := make([][]int, 0, len(byRoot))
	for _, first := range roots {
		out = append(out, byRoot[find(first)])
	}
	return out
}
