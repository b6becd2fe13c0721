package rtree

import (
	"math"
	"sort"

	"paw/internal/geom"
)

// BoxIndex is an immutable, bulk-loaded R-tree over a set of boxes (MBRs).
// The master's layout keeps one over its partition descriptors so query
// routing visits only the partitions whose MBR can intersect the query,
// instead of scanning every descriptor linearly.
//
// The index retains the box slice passed at load time; callers must not
// mutate those boxes afterwards. Searches are read-only and safe for
// concurrent use.
type BoxIndex struct {
	root  *bnode
	boxes []geom.Box
	n     int
}

type bnode struct {
	mbr      geom.Box
	children []*bnode
	items    []int // leaf payload: indices into the source box slice
}

// PackBoxes bulk-loads an index over boxes preserving their given order:
// leaves hold consecutive runs of at most leafCap boxes and upper levels pack
// consecutive runs of nodes. Search results therefore come back in ascending
// index order, and FirstContaining returns the smallest matching index —
// exactly the semantics ordered routing needs. Packing is effective when the
// input order is already spatially coherent (partition IDs are assigned in
// partition-tree pre-order, so sibling runs share tight MBRs).
func PackBoxes(boxes []geom.Box, leafCap int) *BoxIndex {
	if leafCap < 2 {
		leafCap = 16
	}
	t := &BoxIndex{boxes: boxes, n: len(boxes)}
	if len(boxes) == 0 {
		return t
	}
	idx := make([]int, len(boxes))
	for i := range idx {
		idx[i] = i
	}
	t.root = packBoxNodes(leavesOf(boxes, idx, leafCap), leafCap)
	return t
}

// STRBoxes bulk-loads an index over boxes with Sort-Tile-Recursive packing on
// the box centers: boxes are sorted into spatially coherent tiles regardless
// of input order. Search results come back in tile order, not index order;
// use it where result order is irrelevant (e.g. cost summation over
// candidate pieces).
func STRBoxes(boxes []geom.Box, leafCap int) *BoxIndex {
	if leafCap < 2 {
		leafCap = 16
	}
	t := &BoxIndex{boxes: boxes, n: len(boxes)}
	if len(boxes) == 0 {
		return t
	}
	idx := make([]int, len(boxes))
	for i := range idx {
		idx[i] = i
	}
	tiles := strTileBoxes(boxes, idx, leafCap, 0)
	leaves := make([]*bnode, len(tiles))
	for i, tile := range tiles {
		leaves[i] = &bnode{mbr: mbrOfBoxes(boxes, tile), items: tile}
	}
	t.root = packBoxNodes(leaves, leafCap)
	return t
}

// leavesOf cuts idx (already in the desired order) into runs of leafCap.
func leavesOf(boxes []geom.Box, idx []int, leafCap int) []*bnode {
	var out []*bnode
	for s := 0; s < len(idx); s += leafCap {
		e := s + leafCap
		if e > len(idx) {
			e = len(idx)
		}
		run := idx[s:e]
		out = append(out, &bnode{mbr: mbrOfBoxes(boxes, run), items: run})
	}
	return out
}

// strTileBoxes recursively partitions idx into tiles of at most cap boxes,
// sorting by box center along dimension dim at this level (the STR recipe of
// strTile, applied to box centers).
func strTileBoxes(boxes []geom.Box, idx []int, cap, dim int) [][]int {
	if len(idx) <= cap {
		return [][]int{idx}
	}
	dims := boxes[idx[0]].Dims()
	nTiles := (len(idx) + cap - 1) / cap
	remaining := dims - dim
	var slabs int
	if remaining <= 1 {
		slabs = nTiles
	} else {
		slabs = int(math.Ceil(math.Pow(float64(nTiles), 1/float64(remaining))))
	}
	if slabs < 1 {
		slabs = 1
	}
	center := func(i int) float64 { b := boxes[i]; return (b.Lo[dim] + b.Hi[dim]) / 2 }
	sort.SliceStable(idx, func(a, b int) bool { return center(idx[a]) < center(idx[b]) })
	per := (len(idx) + slabs - 1) / slabs
	var out [][]int
	for s := 0; s < len(idx); s += per {
		e := s + per
		if e > len(idx) {
			e = len(idx)
		}
		slab := idx[s:e]
		if remaining <= 1 {
			out = append(out, slab)
		} else {
			out = append(out, strTileBoxes(boxes, slab, cap, dim+1)...)
		}
	}
	return out
}

// mbrOfBoxes returns the MBR of the indexed boxes. Empty (inverted) member
// boxes can only grow the MBR, so the result always covers every non-empty
// member.
func mbrOfBoxes(boxes []geom.Box, idx []int) geom.Box {
	dims := boxes[idx[0]].Dims()
	lo := make(geom.Point, dims)
	hi := make(geom.Point, dims)
	for d := 0; d < dims; d++ {
		lo[d] = math.Inf(1)
		hi[d] = math.Inf(-1)
	}
	for _, i := range idx {
		b := boxes[i]
		for d := 0; d < dims; d++ {
			if b.Lo[d] < lo[d] {
				lo[d] = b.Lo[d]
			}
			if b.Hi[d] > hi[d] {
				hi[d] = b.Hi[d]
			}
		}
	}
	return geom.Box{Lo: lo, Hi: hi}
}

// packBoxNodes groups nodes into parents of at most cap children until one
// root remains, preserving node order.
func packBoxNodes(nodes []*bnode, cap int) *bnode {
	for len(nodes) > 1 {
		parents := make([]*bnode, 0, (len(nodes)+cap-1)/cap)
		for s := 0; s < len(nodes); s += cap {
			e := s + cap
			if e > len(nodes) {
				e = len(nodes)
			}
			group := nodes[s:e]
			mbr := group[0].mbr.Clone()
			for _, g := range group[1:] {
				for d := range mbr.Lo {
					if g.mbr.Lo[d] < mbr.Lo[d] {
						mbr.Lo[d] = g.mbr.Lo[d]
					}
					if g.mbr.Hi[d] > mbr.Hi[d] {
						mbr.Hi[d] = g.mbr.Hi[d]
					}
				}
			}
			parents = append(parents, &bnode{mbr: mbr, children: append([]*bnode(nil), group...)})
		}
		nodes = parents
	}
	return nodes[0]
}

// Len returns the number of indexed boxes.
func (t *BoxIndex) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// AppendIntersecting appends to dst the indices of every indexed box that
// intersects the closed query box q, and returns the extended slice. For a
// PackBoxes index the appended indices are in ascending order; for an
// STRBoxes index the order is the tile order. The intersection test is exact
// at the box level — callers layering finer semantics (irregular regions,
// precise descriptors) confirm each candidate themselves.
func (t *BoxIndex) AppendIntersecting(dst []int, q geom.Box) []int {
	if t == nil || t.root == nil || q.IsEmpty() {
		return dst
	}
	return t.appendIntersecting(t.root, dst, q)
}

// appendIntersecting is the walk under AppendIntersecting, which has already
// found q non-empty: no box on the way down tests that again.
func (t *BoxIndex) appendIntersecting(n *bnode, dst []int, q geom.Box) []int {
	if !meets(n.mbr, q) {
		return dst
	}
	if n.children == nil {
		for _, i := range n.items {
			if meets(t.boxes[i], q) {
				dst = append(dst, i)
			}
		}
		return dst
	}
	for _, c := range n.children {
		dst = t.appendIntersecting(c, dst, q)
	}
	return dst
}

// meets is b.Intersects(q) for a q known to be non-empty, in one pass: b's own
// emptiness (an inverted member box is legal, see mbrOfBoxes) is the third
// comparison of each dimension instead of a loop of its own.
func meets(b, q geom.Box) bool {
	for d, lo := range b.Lo {
		if hi := b.Hi[d]; lo > q.Hi[d] || q.Lo[d] > hi || lo > hi {
			return false
		}
	}
	return len(b.Lo) > 0
}

// PointAccepter is the exact-membership check FirstContaining applies to a
// candidate whose box contains the probe point. Implementations typically
// test the candidate's true region (an irregular descriptor's box minus its
// holes); for plain rectangles, box containment is already exact and the
// accepter can return true unconditionally.
type PointAccepter interface {
	// AcceptPoint reports whether candidate i really contains p.
	AcceptPoint(i int, p geom.Point) bool
}

// FirstContaining returns the first indexed box (in tree order) that contains
// p and whose candidate the accepter confirms, or -1 when none does. For a
// PackBoxes index, tree order is index order, so the result is the smallest
// accepted index — the "first matching child wins" routing contract.
func (t *BoxIndex) FirstContaining(p geom.Point, acc PointAccepter) int {
	if t == nil || t.root == nil {
		return -1
	}
	return t.firstContaining(t.root, p, acc)
}

func (t *BoxIndex) firstContaining(n *bnode, p geom.Point, acc PointAccepter) int {
	if !n.mbr.Contains(p) {
		return -1
	}
	if n.children == nil {
		for _, i := range n.items {
			if t.boxes[i].Contains(p) && acc.AcceptPoint(i, p) {
				return i
			}
		}
		return -1
	}
	for _, c := range n.children {
		if r := t.firstContaining(c, p, acc); r >= 0 {
			return r
		}
	}
	return -1
}

// Height returns the tree height (1 for a single leaf, 0 for empty).
func (t *BoxIndex) Height() int {
	if t == nil {
		return 0
	}
	h := 0
	for n := t.root; n != nil; {
		h++
		if len(n.children) == 0 {
			break
		}
		n = n.children[0]
	}
	return h
}
