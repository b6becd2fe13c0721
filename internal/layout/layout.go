package layout

import (
	"fmt"
	"slices"
	"sync"

	"paw/internal/dataset"
	"paw/internal/geom"
	"paw/internal/rtree"
)

// ID identifies a physical (leaf) partition.
type ID int

// Partition is a leaf of the partition tree: a physical block-set in the
// storage layer. It holds no rows: FullRows is set by routing the complete
// dataset, and the construction sample's rows in it are the ones routing
// sends it.
type Partition struct {
	ID   ID
	Desc Descriptor

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

// LeafRows is a builder's record of the sample rows each leaf it made holds,
// as rows of the dataset it built on. Builders make every leaf through Leaf. A
// build passes a nil LeafRows, which records nothing, so the rows are dropped
// with the builder; a builder's tests pass one and hold it to routing
// (MatchRouting).
type LeafRows struct {
	mu   sync.Mutex
	rows map[*Partition][]int
}

// Leaf returns a leaf over desc and, on a non-nil lr, records rows as its
// rows. Safe for concurrent use.
func (lr *LeafRows) Leaf(desc Descriptor, rows []int) *Node {
	n := &Node{Desc: desc, Part: &Partition{Desc: desc}}
	if lr != nil {
		lr.mu.Lock()
		defer lr.mu.Unlock()
		if lr.rows == nil {
			lr.rows = make(map[*Partition][]int)
		}
		lr.rows[n.Part] = rows
	}
	return n
}

// MatchRouting names the first partition of l whose recorded rows are not
// the rows of sample, in order, that l routes to it; sample is the dataset
// the builder built on.
func (lr *LeafRows) MatchRouting(l *Layout, sample *dataset.Dataset) error {
	for id, routed := range l.RouteIndices(sample) {
		if built := lr.rows[l.Parts[id]]; !slices.Equal(built, routed) {
			return fmt.Errorf("partition %d was built with %d sample rows, but routing sends it %d rows (or other ones)",
				id, len(built), len(routed))
		}
	}
	return nil
}

// routeDown descends from n to the leaf whose region contains p. Children
// are tested in order, so builders must place irregular partitions after the
// grouped partitions carved out of them (boundary points then resolve to the
// group). Returns nil when no child accepts the point. Wide nodes descend
// through their child index, which preserves the first-matching-child
// contract (packed indexes return the smallest accepted index). Bulk routing
// deals whole row blocks instead (route.go).
func (n *Node) routeDown(p geom.Point) *Partition {
	cur := n
	for !cur.IsLeaf() {
		i := -1
		if cur.childIndex != nil {
			i = cur.childIndex.FirstContaining(p, cur)
		} else {
			for j, c := range cur.Children {
				if c.Desc.Contains(p) {
					i = j
					break
				}
			}
		}
		if i < 0 {
			return nil
		}
		cur = cur.Children[i]
	}
	return cur.Part
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
	// Delta and Hist are the scope the layout was built for (Problem 1) —
	// the variance threshold δ in absolute domain units and the historical
	// workload QH — Names the column names SQL is routed by, one per
	// dimension, and MinRows and SampleRate the recipe drift rebuilds a
	// region with (bmin in sample rows, the sample's share of the rows).
	// core.Build and core.BuildMethod set them; a Qd-tree or k-d layout
	// built by calling its builder directly leaves them zero.
	Delta      float64
	Hist       []geom.Box
	Names      []string
	MinRows    int
	SampleRate float64

	// index is the partition-level routing index over the descriptor MBRs,
	// built at Seal/Decode (see index.go), the only constructors. Derived,
	// immutable state; every query path routes through it.
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

// CheckRecipe says why l's recipe cannot rebuild a region: it carries none,
// its bmin is below one sample row, or its sampling rate is outside (0, 1].
func (l *Layout) CheckRecipe() error {
	switch {
	case l.MinRows == 0 && l.SampleRate == 0:
		return fmt.Errorf("layout carries no build recipe (bmin and sampling rate): build it with pawcli build")
	case l.MinRows < 1:
		return fmt.Errorf("recipe bmin of %d sample rows is below one row", l.MinRows)
	case !(l.SampleRate > 0 && l.SampleRate <= 1):
		return fmt.Errorf("recipe sampling rate %g is outside (0, 1]", l.SampleRate)
	}
	return nil
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

// ExtendedHist returns the workload the layout was built for as its builder
// partitioned for it: every query of Hist extended by Delta on every side and
// clipped to the root's box, those that miss it dropped (Q*F of §IV). The
// block store and drift's payloads tile partitions for it.
func (l *Layout) ExtendedHist() []geom.Box {
	if l.Root == nil || len(l.Hist) == 0 {
		return nil
	}
	root := l.Root.Desc.MBR()
	out := make([]geom.Box, 0, len(l.Hist))
	for _, q := range l.Hist {
		if inter, ok := q.Extend(l.Delta).Intersection(root); ok {
			out = append(out, inter)
		}
	}
	return out
}
