package layout

import (
	"fmt"
	"sync"

	"paw/internal/dataset"
	"paw/internal/geom"
	"paw/internal/rtree"
)

// ID identifies a physical (leaf) partition.
type ID int

// Partition is a leaf of the partition tree: a physical block-set in the
// storage layer. SampleRows holds the layout-construction sample rows that
// fell into the partition; FullRows is set by routing the complete dataset.
type Partition struct {
	ID   ID
	Desc Descriptor

	// SampleRows are indices into the construction sample.
	SampleRows []int
	// FullRows is the number of records of the full dataset routed here.
	FullRows int64
	// RowBytes is the simulated size of one record.
	RowBytes int64

	// Precise is the optional precise descriptor (§V-A): a small set of
	// MBRs that collectively cover the partition's records. When non-empty
	// the master may skip the partition even if Desc intersects the query.
	Precise []geom.Box
}

// Bytes returns the partition's physical size.
func (p *Partition) Bytes() int64 { return p.FullRows * p.RowBytes }

// PruneWithPrecise reports whether the precise descriptor proves the query
// cannot touch this partition (no MBR intersects q). With no precise
// descriptor installed it always returns false.
func (p *Partition) PruneWithPrecise(q geom.Box) bool {
	if len(p.Precise) == 0 {
		return false
	}
	for _, m := range p.Precise {
		if m.Intersects(q) {
			return false
		}
	}
	return true
}

// Node is a vertex of the partition tree (Fig. 10). Internal nodes keep only
// descriptors for query routing; leaves own physical partitions.
type Node struct {
	Desc     Descriptor
	Children []*Node
	Part     *Partition // non-nil iff leaf

	// childIndex accelerates point routing through wide fan-outs
	// (Multi-Group nodes): a packed box index over the children's MBRs,
	// built at Seal/Decode, nil for narrow nodes. Derived state — never
	// serialised, read-only after sealing.
	childIndex *rtree.BoxIndex
}

// AcceptPoint implements rtree.PointAccepter for the child index: candidate
// child i truly contains p. Exported only as index plumbing.
func (n *Node) AcceptPoint(i int, p geom.Point) bool { return n.Children[i].Desc.Contains(p) }

// IsLeaf reports whether the node is a physical partition.
func (n *Node) IsLeaf() bool { return n.Part != nil }

// Walk visits every node in pre-order.
func (n *Node) Walk(f func(*Node)) {
	f(n)
	for _, c := range n.Children {
		c.Walk(f)
	}
}

// Leaves returns the leaf nodes in pre-order.
func (n *Node) Leaves() []*Node {
	var out []*Node
	n.Walk(func(m *Node) {
		if m.IsLeaf() {
			out = append(out, m)
		}
	})
	return out
}

// routeDown descends from n to the leaf whose region contains p. Children
// are tested in order, so builders must place irregular partitions after the
// grouped partitions carved out of them (boundary points then resolve to the
// group). Returns nil when no child accepts the point. Wide nodes descend
// through their child index, which preserves the first-matching-child
// contract (packed indexes return the smallest accepted index). A bulk call
// passes the checks it derived from this tree (deriveChecks); with rc == nil
// every child is tested by Desc.Contains.
func (n *Node) routeDown(p geom.Point, rc []splitCheck) *Partition {
	cur, k := n, int32(0)
	for !cur.IsLeaf() {
		i := -1
		if cur.childIndex != nil {
			i = cur.childIndex.FirstContaining(p, cur)
		} else {
			var kids []splitCheck
			if rc != nil {
				kids = rc[rc[k].first:]
			}
			for j, c := range cur.Children {
				if j < len(kids) && kids[j].dim >= 0 {
					if v := p[kids[j].dim]; v < kids[j].lo || v > kids[j].hi {
						continue
					}
				} else if !c.Desc.Contains(p) {
					continue
				}
				i = j
				break
			}
		}
		if i < 0 {
			return nil
		}
		cur = cur.Children[i]
		if rc != nil {
			k = rc[k].first + int32(i)
		}
	}
	return cur.Part
}

// splitCheck is one node's entry in the checks a bulk routing call derives
// from the live tree (deriveChecks); nodes are numbered from the root (0) so
// that a node's children are consecutive from first. A Rect node whose box
// differs from its Rect parent's on one dimension only — either child of an
// axis split — is tested by lo <= p[dim] <= hi, its own bounds there: a point
// the walk brought to the parent lies in the parent's box, so that is exactly
// its Contains, NaN coordinates included. Every other node has dim < 0 and is
// tested by Desc.Contains: the root's children (the root is never tested),
// non-Rect nodes, children of non-Rect or indexed parents, and boxes that
// differ on several dimensions. The checks live for one call, never on the
// tree, so a descriptor edited after Seal is routed as it now is.
type splitCheck struct {
	first, dim int32
	lo, hi     float64
}

// deriveChecks numbers l's tree and derives every node's splitCheck. It holds
// no node pointers, so a large tree costs the collector nothing to scan.
func (l *Layout) deriveChecks() []splitCheck {
	if l.Root == nil {
		return nil
	}
	rc := make([]splitCheck, 1, 2*len(l.Parts)+1)
	rc[0].dim = -1
	var number func(n *Node, k int)
	number = func(n *Node, k int) {
		first := len(rc)
		rc[k].first = int32(first)
		parent, rect := n.Desc.(Rect)
		derive := rect && k > 0 && n.childIndex == nil
		for _, c := range n.Children {
			sc := splitCheck{dim: -1}
			if child, ok := c.Desc.(Rect); derive && ok {
				sc = oneDimSplit(parent.Box, child.Box)
			}
			rc = append(rc, sc)
		}
		for j, c := range n.Children {
			number(c, first+j)
		}
	}
	number(l.Root, 0)
	return rc
}

// oneDimSplit is the check of child under parent when their boxes differ on
// exactly one dimension, and dim -1 otherwise.
func oneDimSplit(parent, child geom.Box) splitCheck {
	sc := splitCheck{dim: -1}
	if len(child.Lo) != len(parent.Lo) || len(child.Hi) != len(parent.Hi) || len(child.Lo) != len(child.Hi) {
		return sc
	}
	for d, lo := range child.Lo {
		if hi := child.Hi[d]; lo != parent.Lo[d] || hi != parent.Hi[d] {
			if sc.dim >= 0 {
				return splitCheck{dim: -1}
			}
			sc = splitCheck{dim: int32(d), lo: lo, hi: hi}
		}
	}
	return sc
}

// routeDownLinear is the retained linear reference for routeDown: every
// level scans its children in order with no index. Differential tests and
// the routing benchmark compare against it.
func (n *Node) routeDownLinear(p geom.Point) *Partition {
	cur := n
	for !cur.IsLeaf() {
		var next *Node
		for _, c := range cur.Children {
			if c.Desc.Contains(p) {
				next = c
				break
			}
		}
		if next == nil {
			return nil
		}
		cur = next
	}
	return cur.Part
}

// Layout is a complete partition layout over a dataset.
type Layout struct {
	// Method records which algorithm produced the layout ("paw",
	// "qd-tree", "kd-tree"), for reporting.
	Method string
	// Root is the partition tree; Root.Desc covers the whole domain.
	Root *Node
	// Parts are the physical partitions (the tree's leaves), indexed by ID.
	Parts []*Partition
	// RowBytes is the simulated record size.
	RowBytes int64
	// TotalBytes is the routed dataset's total size.
	TotalBytes int64
	// Unrouted counts records no leaf accepted (should be 0; kept as a
	// safety signal for floating-point edge cases).
	Unrouted int64

	// index is the partition-level routing index over the descriptor MBRs,
	// built at Seal/Decode (see index.go). Derived, immutable state: nil on
	// hand-assembled layouts, in which case every query path falls back to
	// the linear reference.
	index *rtree.BoxIndex
}

// Seal numbers the leaves, wires Parts, builds the routing index and returns
// the layout. Builders call it once the tree is final.
func Seal(method string, root *Node, rowBytes int64) *Layout {
	l := &Layout{Method: method, Root: root, RowBytes: rowBytes}
	for _, leaf := range root.Leaves() {
		leaf.Part.ID = ID(len(l.Parts))
		leaf.Part.RowBytes = rowBytes
		l.Parts = append(l.Parts, leaf.Part)
	}
	l.buildIndex()
	return l
}

// Route assigns every record of data to a leaf partition, setting FullRows
// and TotalBytes. It reproduces the paper's construction protocol: the
// logical layout is computed on a sample, then the full dataset is routed
// through it (§VI-A). Route may be called repeatedly; counts are reset.
func (l *Layout) Route(data *dataset.Dataset) {
	l.route(data, 1, nil)
}

// hoistColumns caches the dataset's contiguous column slices so routing hot
// loops probe cols[d][r] directly instead of calling data.At per (row, dim).
func hoistColumns(data *dataset.Dataset) [][]float64 {
	cols := make([][]float64, data.Dims())
	for d := range cols {
		cols[d] = data.Column(d)
	}
	return cols
}

// RouteParallel is Route with the row scan fanned out over up to workers
// goroutines; results are identical to Route.
func (l *Layout) RouteParallel(data *dataset.Dataset, workers int) {
	l.route(data, workers, nil)
}

// RouteAssign is RouteParallel that also returns the partition every row
// routes to (-1 for a row no leaf accepts), so a caller that needs the rows
// of each partition — the block store — routes the dataset exactly once.
func (l *Layout) RouteAssign(data *dataset.Dataset, workers int) []int32 {
	assign := make([]int32, data.NumRows())
	l.route(data, workers, assign)
	return assign
}

// route is the one routing pass behind Route, RouteParallel and RouteAssign:
// contiguous row chunks are routed on up to workers goroutines, each with its
// own count vector (and its own slice of assign, when non-nil), and the
// counts are merged in chunk order.
func (l *Layout) route(data *dataset.Dataset, workers int, assign []int32) {
	n := data.NumRows()
	if workers < 2 || n < 4096 {
		workers = 1
	}
	cols := hoistColumns(data)
	rc := l.deriveChecks()
	counts := make([][]int64, workers)
	unrouted := make([]int64, workers)
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, n)
		if lo >= hi {
			break
		}
		counts[w] = make([]int64, len(l.Parts))
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			pt := make(geom.Point, len(cols))
			for i := lo; i < hi; i++ {
				for d, col := range cols {
					pt[d] = col[i]
				}
				id := int32(-1)
				if part := l.Root.routeDown(pt, rc); part != nil {
					counts[w][part.ID]++
					id = int32(part.ID)
				} else {
					unrouted[w]++
				}
				if assign != nil {
					assign[i] = id
				}
			}
		}(w, lo, hi)
	}
	wg.Wait()
	for _, p := range l.Parts {
		p.FullRows = 0
	}
	l.Unrouted = 0
	for w := range counts {
		for id, c := range counts[w] {
			l.Parts[id].FullRows += c
		}
		l.Unrouted += unrouted[w]
	}
	l.TotalBytes = int64(n) * l.RowBytes
}

// RouteIndices routes only the given rows; used to route record subsets to
// build precise descriptors per partition.
func (l *Layout) RouteIndices(data *dataset.Dataset, idx []int) map[ID][]int {
	out := make(map[ID][]int)
	cols := hoistColumns(data)
	rc := l.deriveChecks()
	pt := make(geom.Point, len(cols))
	for _, i := range idx {
		for d, col := range cols {
			pt[d] = col[i]
		}
		if part := l.Root.routeDown(pt, rc); part != nil {
			out[part.ID] = append(out[part.ID], i)
		}
	}
	return out
}

// NumPartitions returns the number of physical partitions.
func (l *Layout) NumPartitions() int { return len(l.Parts) }

// String summarises the layout.
func (l *Layout) String() string {
	irr := 0
	for _, p := range l.Parts {
		if p.Desc.Kind() == KindIrregular {
			irr++
		}
	}
	return fmt.Sprintf("%s layout: %d partitions (%d irregular), %d bytes",
		l.Method, len(l.Parts), irr, l.TotalBytes)
}
