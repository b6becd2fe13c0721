package layout

import (
	"sync"

	"paw/internal/geom"
	"paw/internal/parbuild"
	"paw/internal/rtree"
)

// Routing index: a sealed layout carries an immutable box R-tree over its
// partition descriptor MBRs (and, per tree node with a wide fan-out, over its
// child MBRs), so the master's per-query work — PartitionsFor, QueryCost and
// point routing — visits only the partitions whose MBR can match, instead of
// scanning every descriptor linearly.
//
// Exactness guarantee: the index is a pure pre-filter. Every candidate it
// yields is confirmed with the exact predicates the linear reference uses
// (Descriptor.Intersects / Descriptor.Contains / PruneWithPrecise) — less
// what the index has itself just decided, see scansCandidate — and the MBR
// test can never exclude a true match because a descriptor's region is
// contained in its MBR. Candidates arrive in ascending ID order (the
// index is packed in partition-ID order, which Seal assigns in tree
// pre-order), so indexed results are byte-identical to the linear scans —
// property- and fuzz-tested in index_test.go / fuzz_test.go.
const (
	// partLeafCap is the leaf capacity of the partition-level index.
	partLeafCap = 16
	// childLeafCap is the leaf capacity of per-node child indexes.
	childLeafCap = 4
	// childIndexMinFanout is the child count below which a linear scan of
	// the children beats an index probe (axis splits have fan-out 2; only
	// Multi-Group nodes grow wide).
	childIndexMinFanout = 8
)

// buildIndex (re)builds the routing index. Seal and Decode call it once the
// partition list and tree are final; the index is derived state and is never
// serialised.
func (l *Layout) buildIndex() {
	boxes := make([]geom.Box, len(l.Parts))
	for i, p := range l.Parts {
		boxes[i] = p.Desc.MBR()
	}
	l.index = rtree.PackBoxes(boxes, partLeafCap) // holds no box for no partition
	if l.Root == nil {
		return
	}
	l.Root.Walk(func(n *Node) {
		if len(n.Children) >= childIndexMinFanout {
			cb := make([]geom.Box, len(n.Children))
			for i, c := range n.Children {
				cb[i] = c.Desc.MBR()
			}
			n.childIndex = rtree.PackBoxes(cb, childLeafCap)
		} else {
			n.childIndex = nil
		}
	})
}

// IndexHeight reports the height of the partition-level routing index — 0
// when the layout has no partition.
func (l *Layout) IndexHeight() int { return l.index.Height() }

// candPool recycles candidate-index buffers across concurrent searches, so
// the indexed query paths allocate nothing in steady state.
var candPool = sync.Pool{New: func() any { b := make([]int, 0, 64); return &b }}

// AppendPartitionsFor appends the IDs of the partitions query q must scan to
// dst (in ID order, like PartitionsFor) and returns the extended slice. It
// allocates nothing when dst has capacity — the routing hot path for callers
// that stream many queries. Safe for concurrent use.
func (l *Layout) AppendPartitionsFor(dst []ID, q geom.Box) []ID {
	bp := candPool.Get().(*[]int)
	cand := l.index.AppendIntersecting((*bp)[:0], q)
	for _, i := range cand {
		if p := l.Parts[i]; p.scansCandidate(q) {
			dst = append(dst, p.ID)
		}
	}
	*bp = cand[:0]
	candPool.Put(bp)
	return dst
}

// scansCandidate is Desc.Intersects(q) && !PruneWithPrecise(q) for a partition
// the routing index offered: the index has found q non-empty and p's MBR to
// meet it, once per query, and neither is tested again per candidate. A Rect
// is its MBR; an irregular region and a precise descriptor are what is left.
func (p *Partition) scansCandidate(q geom.Box) bool {
	if _, rect := p.Desc.(Rect); !rect && !p.Desc.Intersects(q) {
		return false
	}
	for _, m := range p.Precise {
		if meetsNonEmpty(m, q) {
			return true
		}
	}
	return len(p.Precise) == 0
}

// meetsNonEmpty is m.Intersects(q) for a q known to be non-empty, in one pass:
// m's own emptiness is the third comparison of each dimension, so a stored
// box that is inverted still meets nothing.
func meetsNonEmpty(m, q geom.Box) bool {
	for d, lo := range m.Lo {
		if hi := m.Hi[d]; lo > q.Hi[d] || q.Lo[d] > hi || lo > hi {
			return false
		}
	}
	return len(m.Lo) > 0
}

// AppendPartitionsForLinear is the retained linear reference for
// AppendPartitionsFor: a full descriptor scan with the same append contract.
// Kept for differential tests and the routing benchmark's baseline.
func (l *Layout) AppendPartitionsForLinear(dst []ID, q geom.Box) []ID {
	for _, p := range l.Parts {
		if p.Desc.Intersects(q) && !p.PruneWithPrecise(q) {
			dst = append(dst, p.ID)
		}
	}
	return dst
}

// batchMinChunk is the smallest per-worker chunk of a batched query sweep;
// below it, fan-out overhead exceeds the routing work.
const batchMinChunk = 8

// PartitionsForBatch routes a whole query set, fanning the sweep over up to
// workers goroutines (0 selects GOMAXPROCS, 1 is serial). out[i] equals
// PartitionsFor(queries[i]) exactly, at every worker count.
func (l *Layout) PartitionsForBatch(queries []geom.Box, workers int) [][]ID {
	out := make([][]ID, len(queries))
	pool := parbuild.New(workers)
	pool.FanChunks(pool.RootSlot(), len(queries), batchMinChunk, func(_, lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			out[i] = l.AppendPartitionsFor(nil, queries[i])
		}
	})
	return out
}

// QueryCosts returns QueryCost(queries[i], extras) for every query, fanning
// the sweep over up to workers goroutines (0 selects GOMAXPROCS, 1 is
// serial). The result is identical at every worker count.
func (l *Layout) QueryCosts(queries []geom.Box, extras Extras, workers int) []int64 {
	out := make([]int64, len(queries))
	pool := parbuild.New(workers)
	pool.FanChunks(pool.RootSlot(), len(queries), batchMinChunk, func(_, lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			out[i] = l.QueryCost(queries[i], extras)
		}
	})
	return out
}

// Locate routes a point to its leaf partition through the index-accelerated
// tree descent (nil when no leaf accepts it). Safe for concurrent use.
func (l *Layout) Locate(p geom.Point) *Partition { return l.Root.routeDown(p, nil) }

// LocateLinear is the retained linear reference for Locate: the plain
// first-matching-child descent. Kept for differential tests and the routing
// benchmark's baseline.
func (l *Layout) LocateLinear(p geom.Point) *Partition { return l.Root.routeDownLinear(p) }
