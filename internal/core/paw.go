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
// bounded parbuild.Pool, and the Multi-Group row assignment sweeps row
// chunks concurrently. The result is deterministic — byte-identical to the
// serial build — because every per-node decision depends only on that
// node's rows and queries, children are assembled in declaration order, and
// chunked sweeps merge in chunk order (see internal/parbuild).
package core

import (
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
	// Obs receives construction telemetry: per-phase timers, Alg. 1/2 split
	// statistics, Ψ(α) policy decisions, bmin expansions and parbuild pool
	// activity (metric names in internal/layout's Metric* constants). nil
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
// the dataset MBR). The returned layout is sealed but not routed.
func Build(data *dataset.Dataset, rows []int, domain geom.Box, hist workload.Workload, p Params) *layout.Layout {
	p = p.withDefaults()
	ext := hist.Extend(p.Delta)
	// Clip the worst-case workload to the domain: the parts of extended
	// queries outside the data space contain no records and would only
	// distort group MBRs.
	queries := clipBoxes(ext.Boxes(), domain)
	b := newBuilder(data, p)
	sp := b.m.tConstruct.Start()
	root := b.construct(domain, rows, queries, 0, b.pool.RootSlot())
	sp.End()
	b.flushScratchStats()
	sp = b.m.tSeal.Start()
	l := layout.Seal("paw", root, data.RowBytes())
	sp.End()
	return l
}

// parAssignMinRows is the row count below which the Multi-Group row
// assignment sweep is not worth chunking across workers.
const parAssignMinRows = 2048

type builder struct {
	data *dataset.Dataset
	p    Params
	pool *parbuild.Pool
	// cols caches the dataset's contiguous column slices so hot loops probe
	// cols[d][r] directly instead of calling data.At per (row, dim) pair.
	cols [][]float64
	// scratch is indexed by parbuild worker slot; a slot is held by at most
	// one goroutine at a time, so entries need no locking.
	scratch []*buildScratch
	// m is the optional construction telemetry; the zero value (all-nil
	// instruments) disables it with no allocations on any path.
	m buildMetrics
}

// buildMetrics bundles the construction instruments. All fields are nil when
// telemetry is disabled; every method call then no-ops on the nil receiver.
type buildMetrics struct {
	tConstruct, tSeal, tMulti, tAxis, tRefine   *obs.Timer
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
		tConstruct:     reg.Timer(layout.MetricConstructNs),
		tSeal:          reg.Timer(layout.MetricSealNs),
		tMulti:         reg.Timer(layout.MetricMultiNs),
		tAxis:          reg.Timer(layout.MetricAxisNs),
		tRefine:        reg.Timer(layout.MetricRefineNs),
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
	// fs is the float buffer of median and expansion-rank selection.
	fs []float64
	// assign is the per-row group-index buffer of multiGroupSplit.
	assign []int32
}

func newBuilder(data *dataset.Dataset, p Params) *builder {
	pool := parbuild.New(p.Parallelism)
	pool.Instrument(p.Obs)
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
		m:       newBuildMetrics(p.Obs),
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
		return b.queryFreeLeaf(box, rows)
	}
	size := len(rows)
	tryMulti := !b.p.DisableMultiGroup && float64(size) >= b.p.Alpha*float64(b.p.MinRows)
	tryAxis := size >= 2*b.p.MinRows
	if !tryAxis {
		// Ψ(Po) = ∅: below 2·bmin nothing can be split.
		b.m.policyTerminal.Inc()
		return leaf(box, rows)
	}
	// Ψ(α) decision (Eq. 4): which split set this node is offered.
	if tryMulti {
		b.m.policyMulti.Inc()
	} else {
		b.m.policyAxisOnly.Inc()
	}

	curCost := int64(len(queries)) * int64(size)
	var best *splitResult
	bestIsMulti := false
	if tryMulti {
		sp := b.m.tMulti.Start()
		r := b.multiGroupSplit(box, rows, queries, slot)
		sp.End()
		b.m.multiTried.Inc()
		if r != nil && r.cost < curCost {
			best = r
			bestIsMulti = true
		}
	}
	spAxis := b.m.tAxis.Start()
	rAxis := b.axisSplit(box, rows, queries, slot)
	spAxis.End()
	if rAxis != nil && rAxis.cost < curCost {
		if best == nil || rAxis.cost < best.cost {
			best = rAxis
			bestIsMulti = false
		}
	}
	if best == nil {
		return leaf(box, rows)
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
			node.Children[i] = b.irregularLeaf(pc, s)
		} else {
			node.Children[i] = b.construct(pc.box, pc.rows, clipBoxes(queries, pc.box), depth+1, s)
		}
	})
	return node
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
	sc := b.scratchFor(slot)
	gpBoxes := make([]geom.Box, 0, len(groups))
	for _, g := range groups {
		member := make([]geom.Box, len(g))
		for i, qi := range g {
			member[i] = queries[qi]
		}
		gp := geom.MBR(member...)
		gp, ok := b.expandToMin(box, rows, gp, sc)
		if !ok {
			return nil
		}
		gpBoxes = append(gpBoxes, gp)
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
	assign := sc.assignBuf(len(rows))
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
	if b.pool.Workers() > 1 && len(rows) >= parAssignMinRows {
		chunkCounts := make([][]int, b.pool.Workers())
		nChunks := b.pool.FanChunks(slot, len(rows), parAssignMinRows/2, func(c, lo, hi, s int) {
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
			inside++
		}
	}
	if inside >= b.p.MinRows {
		return gp, true
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
	fs := sc.floats(len(rows))
	for i, r := range rows {
		f := 0.0
		for d := range c {
			num := b.cols[d][r] - c[d]
			if num < 0 {
				num = -num
			}
			if rad[d] > 0 {
				if q := num / rad[d]; q > f {
					f = q
				}
			} else if num > 0 {
				f = 1e308
			}
		}
		fs[i] = f
	}
	factor := kdtree.Select(fs, b.p.MinRows-1)
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

// queryFreeLeaf finalises a partition no extended query intersects. With
// DataAwareRefine on, it is k-d split to the finest size (§IV-E).
func (b *builder) queryFreeLeaf(box geom.Box, rows []int) *layout.Node {
	if b.p.DataAwareRefine && len(rows) >= 2*b.p.MinRows {
		b.m.refineCalls.Inc()
		sp := b.m.tRefine.Start()
		n := kdtree.RefineLeaf(b.data, box, rows, b.p.MinRows, 0)
		sp.End()
		return n
	}
	return leaf(box, rows)
}

// irregularLeaf finalises an irregular piece. With DataAwareRefine on, the
// irregular region is cut data-aware into cells: the outer box is k-d split
// and every cell keeps the irregular semantics (cell minus the holes inside
// it), so partially intersecting unpredictable queries scan one small cell
// instead of the entire remainder.
func (b *builder) irregularLeaf(pc piece, slot int) *layout.Node {
	ir := pc.desc.(layout.Irregular)
	if !b.p.DataAwareRefine || len(pc.rows) < 2*b.p.MinRows {
		return &layout.Node{Desc: pc.desc, Part: &layout.Partition{Desc: pc.desc, SampleRows: pc.rows}}
	}
	b.m.refineCalls.Inc()
	sp := b.m.tRefine.Start()
	n := b.refineIrregular(ir.Outer, ir.Holes, pc.rows, 0, slot)
	sp.End()
	return n
}

func (b *builder) refineIrregular(outer geom.Box, holes []geom.Box, rows []int, depth, slot int) *layout.Node {
	desc := layout.NewIrregular(outer, holes)
	if len(rows) < 2*b.p.MinRows {
		return &layout.Node{Desc: desc, Part: &layout.Partition{Desc: desc, SampleRows: rows}}
	}
	dims := b.data.Dims()
	sc := b.scratchFor(slot)
	vals := sc.floats(len(rows))
	for off := 0; off < dims; off++ {
		dim := (depth + off) % dims
		_, m, nLeft, ok := kdtree.MedianCut(b.cols[dim], rows, vals)
		if !ok {
			continue
		}
		cut := qdtree.CutAtUpper(dim, m)
		if !cut.Inside(outer) {
			continue
		}
		if nLeft < b.p.MinRows || len(rows)-nLeft < b.p.MinRows {
			continue
		}
		left, right := qdtree.SplitRowsN(b.data, rows, cut, nLeft)
		lbox, rbox := cut.Apply(outer)
		node := &layout.Node{Desc: desc, Children: make([]*layout.Node, 2)}
		b.pool.Fan(slot, 2, func(i, s int) {
			if i == 0 {
				node.Children[0] = b.refineIrregular(lbox, clipBoxes(holes, lbox), left, depth+1, s)
			} else {
				node.Children[1] = b.refineIrregular(rbox, clipBoxes(holes, rbox), right, depth+1, s)
			}
		})
		return node
	}
	return &layout.Node{Desc: desc, Part: &layout.Partition{Desc: desc, SampleRows: rows}}
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

func clipBoxes(queries []geom.Box, box geom.Box) []geom.Box {
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
