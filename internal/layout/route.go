package layout

import (
	"cmp"
	"math"
	"slices"

	"paw/internal/dataset"
	"paw/internal/geom"
	"paw/internal/parbuild"
)

// routeBlock is how many rows bulk routing deals at once: the block's slice of
// every column stays in cache while it goes down the tree, and a row's number
// in the block fits a uint16.
const routeBlock = 4096

// Route routes every record of data to a leaf partition, setting FullRows,
// Unrouted and TotalBytes: the full dataset goes through a layout computed on
// a sample (§VI-A). Every call resets the counts.
func (l *Layout) Route(data *dataset.Dataset) { l.RouteRows(data, 1) }

// RouteParallel is Route on up to workers goroutines (0: GOMAXPROCS), with
// identical results.
func (l *Layout) RouteParallel(data *dataset.Dataset, workers int) { l.RouteRows(data, workers) }

// RouteRows is RouteParallel that also returns every partition's rows, by ID,
// each ascending, so the block store routes the dataset once.
func (l *Layout) RouteRows(data *dataset.Dataset, workers int) [][]int {
	byPart, unrouted := l.deal(data, workers)
	for id, p := range l.Parts {
		p.FullRows = int64(len(byPart[id]))
	}
	l.Unrouted, l.TotalBytes = unrouted, int64(data.NumRows())*l.RowBytes
	return byPart
}

// RouteIndices routes every row of data on GOMAXPROCS goroutines and returns
// them by partition ID, each partition's ascending. It sets nothing on l, so
// a layout can be routed while it serves.
func (l *Layout) RouteIndices(data *dataset.Dataset) [][]int {
	byPart, _ := l.deal(data, 0)
	return byPart
}

// deal is the one bulk routing pass: each pool worker deals a contiguous
// chunk of the rows down the tree a block at a time (dealer), and the chunks'
// shares are joined in chunk order, so every list keeps the rows' order. The
// join knows every partition's count from every chunk, so each chunk copies
// its shares straight to their places in one backing array, and nothing is
// grown.
func (l *Layout) deal(data *dataset.Dataset, workers int) ([][]int, int64) {
	n := data.NumRows()
	if n > math.MaxInt32 {
		panic("layout: bulk routing keeps row numbers in 32 bits")
	}
	rc := l.deriveChecks()
	var rootBox []bound
	if r, ok := l.Root.Desc.(Rect); ok {
		rootBox = boxCheck(geom.Box{}, r.Box, false, nil).box
	}
	pool := parbuild.New(workers)
	dealers := make([]*dealer, pool.Workers())
	dealers = dealers[:pool.FanChunks(pool.RootSlot(), n, routeBlock, func(c, lo, hi, _ int) {
		dims := data.Dims()
		d := &dealer{rc: rc, rootBox: rootBox, data: data,
			block: make([][]float64, dims), pt: make(geom.Point, dims),
			rows: make([]uint16, routeBlock), take: make([]uint16, routeBlock), cand: make([]uint16, routeBlock),
			mask: make([]uint8, routeBlock), which: make([]int32, routeBlock),
			dealt: make([]int32, 0, hi-lo), count: make([]int, len(l.Parts))}
		for ; lo < hi; lo += routeBlock {
			d.route(l.Root, lo, min(routeBlock, hi-lo))
		}
		dealers[c] = d
	})]
	// Partition id's rows are rows[start[id]:start[id+1]], its chunks' shares
	// in chunk order: each chunk's count[id] becomes where its share goes.
	start := make([]int, len(l.Parts)+1)
	for id := range l.Parts {
		start[id+1] = start[id]
		for _, d := range dealers {
			d.count[id], start[id+1] = start[id+1], start[id+1]+d.count[id]
		}
	}
	rows, byPart := make([]int, start[len(l.Parts)]), make([][]int, len(l.Parts))
	for id := range byPart {
		byPart[id] = rows[start[id]:start[id+1]:start[id+1]]
	}
	pool.Fan(pool.RootSlot(), len(dealers), func(c, _ int) {
		d := dealers[c]
		for i := 0; i < len(d.shares); i += 2 {
			id, share := d.shares[i], d.dealt[:d.shares[i+1]]
			for j, r := range share {
				rows[d.count[id]+j] = int(r)
			}
			d.count[id] += len(share)
			d.dealt = d.dealt[len(share):]
		}
	})
	return byPart, int64(n - len(rows))
}

// dealer is one chunk's routing state. A block goes down the tree as the list
// of its rows' numbers in the block (rows): at a node each child in turn
// takes, by a stable branch-free partition, the rows it accepts of those its
// earlier siblings left, moved to the list's end; a leaf appends its rows to
// the chunk's dealt rows as one share of its partition.
type dealer struct {
	rc               []splitCheck
	rootBox          []bound
	outside          bool // the block has a row outside rootBox
	data             *dataset.Dataset
	base             int         // the block's first row
	block            [][]float64 // the block's values: views of the columns
	pt               geom.Point
	rows, take, cand []uint16
	mask             []uint8
	which, bins      []int32
	// dealt holds the chunk's rows, 32 bits a row, in the order the leaves
	// took them: per block, a leaf's share at a time. shares lists those
	// shares as (partition ID, rows) pairs, and count[id] sums partition id's
	// until the join (deal) makes it where they go.
	dealt, shares []int32
	count         []int
}

// route deals the m rows from position base down the tree.
func (d *dealer) route(root *Node, base, m int) {
	d.base = base
	for c := range d.block {
		d.block[c] = d.data.Column(c)[base : base+m]
	}
	out := 0
	for _, b := range d.rootBox {
		for _, v := range d.block[b.dim] {
			out |= b2i(v < b.lo) | b2i(v > b.hi)
		}
	}
	d.outside = out != 0
	rows := d.rows[:m]
	for i := range rows {
		rows[i] = uint16(i)
	}
	d.node(root, 0, rows)
}

// node deals rows, which reached n (node number k), to n's leaves.
func (d *dealer) node(n *Node, k int32, rows []uint16) {
	if n.Part != nil {
		for _, x := range rows {
			d.dealt = append(d.dealt, int32(d.base+int(x)))
		}
		d.shares = append(d.shares, int32(n.Part.ID), int32(len(rows)))
		d.count[n.Part.ID] += len(rows)
		return
	}
	if n.childIndex != nil {
		d.indexed(n, k, rows)
		return
	}
	for j, c := range n.Children {
		if len(rows) == 0 {
			return
		}
		kc, sc := d.rc[k].first+int32(j), &descCheck
		if k > 0 || !d.outside {
			sc = &d.rc[kc]
		}
		if sc.dim != checkDesc && len(sc.box) == 0 {
			d.node(c, kc, rows)
			return
		}
		if t := d.split(c, sc, rows); t > 0 {
			rest := len(rows) - t
			d.node(c, kc, rows[rest:])
			rows = rows[:rest]
		}
	}
}

// split moves the rows child c accepts to the end of rows, the rest to the
// front, both in order, and returns how many it took. A bound is tested as
// !(v < lo || v > hi), Box.Contains's test, which a NaN passes.
func (d *dealer) split(c *Node, sc *splitCheck, rows []uint16) int {
	t, r, take := 0, 0, d.take
	if sc.dim >= 0 {
		b, col := sc.box[0], d.block[sc.dim]
		for _, x := range rows {
			v := col[x]
			in := 1 - (b2i(v < b.lo) | b2i(v > b.hi))
			take[t], rows[r] = x, x
			t, r = t+in, r+1-in
		}
		return copy(rows[r:], take[:t])
	}
	// cand narrows to the positions of the rows that pass: the region, or
	// each bound in turn over the rows that passed the ones before it.
	cand, n := d.cand[:len(rows)], len(rows)
	for i := range cand {
		cand[i] = uint16(i)
	}
	if sc.dim == checkDesc {
		n = 0
		for i, x := range rows {
			d.point(x)
			cand[n] = uint16(i)
			n += b2i(c.Desc.Contains(d.pt))
		}
	}
	for _, b := range sc.box {
		col, k := d.block[b.dim], 0
		for _, i := range cand[:n] {
			v := col[rows[i]]
			cand[k] = i
			k += 1 - (b2i(v < b.lo) | b2i(v > b.hi))
		}
		n = k
	}
	if n == 0 {
		return 0
	}
	mask := d.mask[:len(rows)]
	clear(mask)
	for _, i := range cand[:n] {
		mask[i] = 1
	}
	for i, x := range rows {
		in := int(mask[i])
		take[t], rows[r] = x, x
		t, r = t+in, r+1-in
	}
	return copy(rows[r:], take[:t])
}

// indexed deals rows to n's children by n's child index: a counting sort by
// FirstContaining child, then each child's run in turn.
func (d *dealer) indexed(n *Node, k int32, rows []uint16) {
	at := len(d.bins)
	d.bins = append(d.bins, make([]int32, len(n.Children)+2)...)
	bins, which := d.bins[at:], d.which[:len(rows)]
	for i, x := range rows {
		d.point(x)
		which[i] = int32(n.childIndex.FirstContaining(d.pt, n)) + 1
		bins[which[i]+1]++
	}
	for w := 1; w < len(bins); w++ {
		bins[w] += bins[w-1]
	}
	for i, x := range rows {
		d.take[bins[which[i]]] = x
		bins[which[i]]++
	}
	copy(rows, d.take)
	// Bucket w (0: no child) now ends at bins[w]; child j's is bucket j+1.
	for j, c := range n.Children {
		if lo, hi := d.bins[at+j], d.bins[at+j+1]; lo < hi {
			d.node(c, d.rc[k].first+int32(j), rows[lo:hi])
		}
	}
	d.bins = d.bins[:at]
}

// point gathers block row x into d.pt.
func (d *dealer) point(x uint16) {
	for c, col := range d.block {
		d.pt[c] = col[x]
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// splitCheck is one node's entry in the checks a bulk routing call derives
// from the live tree (deriveChecks), never stored on it, so a descriptor
// edited after Seal is routed as it now is. Nodes are numbered from the root
// (0) so that a node's children are consecutive from first. dim says how
// the node is tested once the walk reached its parent:
//
//   - A Rect node without a child-indexed parent, on its box: under a Rect
//     parent, whose box a point that reached it lies in, only where the two
//     boxes differ (boxCheck). dim is the dimension for one bound, checkBox
//     otherwise.
//   - The remainder of a Multi-Group split (remainderOf), checkRest: taken
//     without a test once its siblings have rejected the point.
//   - Every other node, checkDesc: Desc.Contains.
type splitCheck struct {
	first, dim int32
	box        []bound
}

// bound is one interval of a splitCheck: lo <= p[dim] <= hi.
type bound struct {
	dim    int
	lo, hi float64
}

// The dims of a splitCheck that tests not just one dimension.
const checkDesc, checkRest, checkBox = -1, -2, -3

// descCheck tests the root's children in a block with a row outside the
// root's box, which their derived checks take as given: the root is never
// tested.
var descCheck = splitCheck{dim: checkDesc}

// deriveChecks numbers l's tree and derives every node's splitCheck, the
// root's children as though every point lay in the root's box (descCheck).
func (l *Layout) deriveChecks() []splitCheck {
	if l.Root == nil {
		return nil
	}
	rc := make([]splitCheck, 1, 2*len(l.Parts)+1)
	rc[0].dim = checkDesc
	var number func(n *Node, k int)
	number = func(n *Node, k int) {
		first := len(rc)
		rc[k].first = int32(first)
		parent, rect := n.Desc.(Rect)
		for j, c := range n.Children {
			sc := splitCheck{dim: checkDesc}
			switch child := c.Desc.(type) {
			case Rect:
				if n.childIndex == nil {
					var prev *splitCheck
					if j > 0 {
						prev = &rc[len(rc)-1]
					}
					sc = boxCheck(parent.Box, child.Box, rect, prev)
				}
			case Irregular:
				if rect && n.childIndex == nil && remainderOf(parent.Box, child, n.Children[:j]) {
					sc.dim = checkRest
				}
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

// boxCheck is the check of a Rect child: its box on every dimension or, for
// a point known to lie in parent (within), on those where the two differ —
// on none when every such point that prev, the check of the sibling before
// it, rejects lies in the box (the second half of an axis split). The bounds
// go narrowest first, relative to parent, so the first rejects the most.
func boxCheck(parent, child geom.Box, within bool, prev *splitCheck) splitCheck {
	if len(child.Lo) != len(child.Hi) {
		return splitCheck{dim: checkDesc}
	}
	sized := len(parent.Lo) == len(child.Lo) && len(parent.Hi) == len(child.Lo)
	within = within && sized
	sc := splitCheck{dim: checkBox, box: []bound{}}
	for d, lo := range child.Lo {
		if hi := child.Hi[d]; !within || lo != parent.Lo[d] || hi != parent.Hi[d] {
			sc.box = append(sc.box, bound{d, lo, hi})
		}
	}
	if sized {
		width := func(b bound) float64 { return (b.hi - b.lo) / (parent.Hi[b.dim] - parent.Lo[b.dim]) }
		slices.SortStableFunc(sc.box, func(a, b bound) int { return cmp.Compare(width(a), width(b)) })
	}
	if len(sc.box) == 1 {
		sc.dim = int32(sc.box[0].dim)
		if within && prev != nil && follows(prev, sc.box[0], parent) {
			sc = splitCheck{dim: checkBox, box: []bound{}}
		}
	}
	return sc
}

// follows reports whether every point of parent that prev rejects lies in
// c: prev and c bound the same one dimension, prev from parent's lower bound
// to hi and c from at most the float after hi on to parent's upper bound (a
// rejected v > hi), or the mirror image.
func follows(prev *splitCheck, c bound, parent geom.Box) bool {
	if prev.dim != int32(c.dim) {
		return false
	}
	p, d := prev.box[0], c.dim
	return p.lo == parent.Lo[d] && c.hi == parent.Hi[d] && c.lo <= math.Nextafter(p.hi, math.Inf(1)) ||
		p.hi == parent.Hi[d] && c.lo == parent.Lo[d] && c.hi >= math.Nextafter(p.lo, math.Inf(-1))
}

// remainderOf reports whether ir's region is exactly parent minus the closed
// boxes of the siblings before it: its outer box is parent, non-empty, and
// its holes are those siblings' Rect boxes, in order. A point that reached
// parent and that every one of them rejected then lies in the region, NaN
// coordinates included.
func remainderOf(parent geom.Box, ir Irregular, before []*Node) bool {
	if len(ir.Holes) != len(before) || !sameBox(ir.Outer, parent) || parent.IsEmpty() {
		return false
	}
	for i, s := range before {
		if r, ok := s.Desc.(Rect); !ok || !sameBox(r.Box, ir.Holes[i]) {
			return false
		}
	}
	return true
}

// sameBox is a.Equal(b) for well-formed boxes, and false otherwise.
func sameBox(a, b geom.Box) bool {
	return len(a.Lo) == len(a.Hi) && len(b.Lo) == len(b.Hi) && a.Equal(b)
}
