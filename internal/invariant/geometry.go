package invariant

import (
	"math/rand"
	"sort"

	"paw/internal/geom"
	"paw/internal/layout"
)

// volumeRelTol bounds the relative error tolerated by volume-conservation
// checks. Split planes are placed at adjacent floats (LeftHi < RightLo with
// no representable value between), so the "gap" between siblings is a few
// ulps of slab volume — far below this tolerance on any real layout.
const volumeRelTol = 1e-6

// CheckGeometry verifies the partition geometry contracts of §IV-B/Fig. 10:
//
//   - every child's MBR lies inside its parent's MBR;
//   - sibling regions are interior-disjoint (exact box algebra between
//     rectangular and between irregular siblings, seeded interior point
//     sampling across all leaves);
//   - the children of every node cover it: leaf volumes sum to the root
//     volume, rectangular splits conserve volume node-by-node, and every
//     sampled domain point is contained in at least one leaf;
//   - routing the construction rows (Inputs.Rows over Inputs.Data) sends
//     every one of them to a leaf whose descriptor contains it;
//   - every partition is routed at least bmin sample rows (Ψ feasibility),
//     except a root that was too small to split at all.
func CheckGeometry(l *layout.Layout, in Inputs) error {
	in = in.withDefaults()
	if l.Root == nil {
		return violationf(OracleGeometry, "layout has no root")
	}

	// Per-node structural checks.
	var walkErr error
	l.Root.Walk(func(n *layout.Node) {
		if walkErr != nil || n.IsLeaf() {
			return
		}
		if len(n.Children) < 2 {
			walkErr = violationf(OracleGeometry, "internal node %v has %d children (splits produce >= 2)",
				n.Desc.MBR(), len(n.Children))
			return
		}
		parent := n.Desc.MBR()
		for i, c := range n.Children {
			if !parent.ContainsBox(c.Desc.MBR()) {
				walkErr = violationf(OracleGeometry, "child %d MBR %v escapes parent %v",
					i, c.Desc.MBR(), parent)
				return
			}
		}
		// Pairwise interior disjointness of rect/rect and irregular/irregular
		// siblings. Rect/irregular pairs are covered by the hole-equality
		// check of the grouped-split oracle and the interior point sampling
		// below (the irregular's MBR legitimately overlaps every sibling).
		for i := range n.Children {
			for j := i + 1; j < len(n.Children); j++ {
				a, b := n.Children[i].Desc, n.Children[j].Desc
				if a.Kind() != b.Kind() {
					continue
				}
				var boxA, boxB geom.Box
				if a.Kind() == layout.KindRect {
					boxA, boxB = a.MBR(), b.MBR()
				} else {
					boxA, boxB = a.(layout.Irregular).Outer, b.(layout.Irregular).Outer
				}
				if inter, ok := boxA.Intersection(boxB); ok && inter.Volume() > 0 {
					walkErr = violationf(OracleGeometry,
						"siblings %d and %d overlap with volume %g (boxes %v, %v)",
						i, j, inter.Volume(), boxA, boxB)
					return
				}
			}
		}
		// Rect-only splits conserve volume exactly (axis-parallel cuts).
		if allRect(n.Children) && parent.Volume() > 0 {
			sum := 0.0
			for _, c := range n.Children {
				sum += c.Desc.MBR().Volume()
			}
			if !approxEqual(sum, parent.Volume()) {
				walkErr = violationf(OracleGeometry,
					"children of %v cover volume %g of parent volume %g", parent, sum, parent.Volume())
				return
			}
		}
	})
	if walkErr != nil {
		return walkErr
	}

	// Global volume conservation: the leaves tile the root.
	rootVol := l.Root.Desc.MBR().Volume()
	if rootVol > 0 {
		sum := 0.0
		for _, p := range l.Parts {
			sum += leafVolume(p.Desc)
		}
		if !approxEqual(sum, rootVol) {
			return violationf(OracleGeometry,
				"leaf volumes sum to %g, root volume is %g (gap or overlap)", sum, rootVol)
		}
	}

	// Seeded point probe: coverage (>= 1 containing leaf) and interior
	// disjointness (<= 1 leaf containing the point strictly inside).
	rng := rand.New(rand.NewSource(in.Seed))
	for _, p := range samplePoints(rng, l, in) {
		contained, interior := 0, 0
		var first, second layout.ID
		for _, part := range l.Parts {
			if part.Desc.Contains(p) {
				contained++
			}
			if interiorContains(part.Desc, p) {
				if interior == 0 {
					first = part.ID
				} else {
					second = part.ID
				}
				interior++
			}
		}
		if contained == 0 {
			return violationf(OracleGeometry, "point %v is covered by no partition", p)
		}
		if interior > 1 {
			return violationf(OracleGeometry,
				"point %v lies strictly inside %d partitions (e.g. %d and %d)", p, interior, first, second)
		}
	}

	// Sample rows, on the rows routing sends each leaf: every construction
	// row reaches a leaf, whose descriptor contains it, and every leaf gets
	// at least bmin of them (Ψ feasibility) — except a root too small to
	// split at all, when no split function was admissible.
	parts, err := routedSample(l, in)
	if err != nil || parts == nil {
		return err
	}
	routed := 0
	for _, rows := range parts {
		routed += len(rows)
	}
	if routed != len(in.Rows) {
		return violationf(OracleGeometry,
			"leaves route %d of the %d construction rows", routed, len(in.Rows))
	}
	pt := make(geom.Point, in.Data.Dims())
	for id, rows := range parts {
		p := l.Parts[id]
		for _, r := range rows {
			for d := range pt {
				pt[d] = in.Data.At(r, d)
			}
			if !p.Desc.Contains(pt) {
				return violationf(OracleGeometry,
					"partition %d was routed row %d at %v outside its region", p.ID, r, pt)
			}
		}
		if in.MinRows > 0 && l.NumPartitions() > 1 && len(rows) < in.MinRows {
			return violationf(OracleGeometry,
				"partition %d holds %d sample rows, below bmin=%d", p.ID, len(rows), in.MinRows)
		}
	}
	return nil
}

// routedSample returns the construction rows l routes to each partition, by
// ID, as rows of in.Data in the order of in.Rows: nil when in names no rows,
// and an error when it names rows but not the dataset they index.
func routedSample(l *layout.Layout, in Inputs) ([][]int, error) {
	if in.Rows == nil {
		return nil, nil
	}
	if in.Data == nil {
		return nil, errRowsWithoutData
	}
	sample, _ := in.Data.Gather(in.Rows, 1)
	parts := l.RouteIndices(sample)
	for _, rows := range parts {
		for i, r := range rows {
			rows[i] = in.Rows[r]
		}
	}
	return parts, nil
}

// CheckGroupedSplit verifies the Multi-Group Split semantics of Algorithm 1
// at every node that carries an irregular child:
//
//   - exactly one irregular child exists and it is the last one (builders
//     place the remainder after the grouped partitions so boundary routing
//     resolves to the groups, layout.Node.routeDown);
//   - the irregular's outer box is the parent box and its holes are exactly
//     the grouped siblings' boxes (IP = parent minus GPs);
//   - every extended query of the node is fully contained in a grouped
//     partition, and each intersection group (recomputed here by
//     union-find) fits inside a single GP;
//   - the irregular remainder intersects no extended query of the node, the
//     property that makes its cost 0 (§IV-D).
//
// The per-node extended query sets are derived independently of the
// builders: Q*F clipped to the domain, then re-clipped at every descent.
func CheckGroupedSplit(l *layout.Layout, in Inputs) error {
	in = in.withDefaults()
	if l.Root == nil {
		return violationf(OracleGroupedSplit, "layout has no root")
	}
	root := clipAll(in.Hist.Extend(in.Delta).Boxes(), in.Domain)
	return checkGroupedNode(l.Root, root)
}

func checkGroupedNode(n *layout.Node, queries []geom.Box) error {
	if n.IsLeaf() {
		return nil
	}
	if n.Desc.Kind() == layout.KindRect {
		var irregular []int
		for i, c := range n.Children {
			if c.Desc.Kind() == layout.KindIrregular {
				irregular = append(irregular, i)
			}
		}
		if len(irregular) > 0 {
			if len(irregular) != 1 || irregular[0] != len(n.Children)-1 {
				return violationf(OracleGroupedSplit,
					"node %v has irregular children at positions %v, want exactly one, last",
					n.Desc.MBR(), irregular)
			}
			ir, ok := n.Children[len(n.Children)-1].Desc.(layout.Irregular)
			if !ok {
				return violationf(OracleGroupedSplit, "irregular child carries descriptor %T", n.Children[len(n.Children)-1].Desc)
			}
			if !ir.Outer.Equal(n.Desc.MBR()) {
				return violationf(OracleGroupedSplit,
					"irregular outer %v differs from parent box %v", ir.Outer, n.Desc.MBR())
			}
			ng := len(n.Children) - 1
			if len(ir.Holes) != ng {
				return violationf(OracleGroupedSplit,
					"irregular has %d holes for %d grouped siblings", len(ir.Holes), ng)
			}
			for i := 0; i < ng; i++ {
				if !ir.Holes[i].Equal(n.Children[i].Desc.MBR()) {
					return violationf(OracleGroupedSplit,
						"hole %d is %v but grouped sibling box is %v (IP != parent minus GPs)",
						i, ir.Holes[i], n.Children[i].Desc.MBR())
				}
			}
			for _, q := range queries {
				if gp := containingGroup(n, ng, q); gp < 0 {
					return violationf(OracleGroupedSplit,
						"extended query %v escapes every grouped partition of node %v", q, n.Desc.MBR())
				}
				if ir.Intersects(q) {
					return violationf(OracleGroupedSplit,
						"irregular remainder of %v intersects extended query %v (cost not 0)", n.Desc.MBR(), q)
				}
			}
			for gi, g := range groupTransitive(queries) {
				if !groupFitsOneGP(n, ng, queries, g) {
					return violationf(OracleGroupedSplit,
						"query group %d (%d queries) spans multiple grouped partitions of node %v",
						gi, len(g), n.Desc.MBR())
				}
			}
		}
	}
	for _, c := range n.Children {
		if err := checkGroupedNode(c, clipAll(queries, c.Desc.MBR())); err != nil {
			return err
		}
	}
	return nil
}

// containingGroup returns the index of a grouped (rect) child whose box
// fully contains q, or -1.
func containingGroup(n *layout.Node, ng int, q geom.Box) int {
	for i := 0; i < ng; i++ {
		if n.Children[i].Desc.MBR().ContainsBox(q) {
			return i
		}
	}
	return -1
}

// groupFitsOneGP reports whether some single grouped child contains every
// query of the group.
func groupFitsOneGP(n *layout.Node, ng int, queries []geom.Box, group []int) bool {
	for i := 0; i < ng; i++ {
		box := n.Children[i].Desc.MBR()
		all := true
		for _, qi := range group {
			if !box.ContainsBox(queries[qi]) {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// groupTransitive unions queries into groups of transitively intersecting
// queries — an independent reimplementation of the builders' grouping so a
// shared bug cannot mask itself.
func groupTransitive(queries []geom.Box) [][]int {
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
	groups := make(map[int][]int)
	for i := range queries {
		r := find(i)
		groups[r] = append(groups[r], i)
	}
	var roots []int
	for r := range groups {
		roots = append(roots, groups[r][0])
	}
	sort.Ints(roots)
	out := make([][]int, 0, len(groups))
	for _, first := range roots {
		out = append(out, groups[find(first)])
	}
	return out
}

// interiorContains reports whether p lies strictly inside the descriptor's
// region: inside a rect with no boundary contact, or inside an irregular's
// region strictly within its outer box. Sibling regions may legitimately
// share boundary planes (measure zero), so disjointness is asserted on
// interiors only.
func interiorContains(d layout.Descriptor, p geom.Point) bool {
	switch dd := d.(type) {
	case layout.Rect:
		return strictlyInside(dd.Box, p)
	case layout.Irregular:
		return strictlyInside(dd.Outer, p) && dd.Contains(p)
	default:
		return d.Contains(p)
	}
}

func strictlyInside(b geom.Box, p geom.Point) bool {
	for d := range b.Lo {
		if p[d] <= b.Lo[d] || p[d] >= b.Hi[d] {
			return false
		}
	}
	return true
}

// samplePoints produces the deterministic geometric probe set: uniform
// points in the root MBR plus (when available) a spread of dataset records.
func samplePoints(rng *rand.Rand, l *layout.Layout, in Inputs) []geom.Point {
	box := l.Root.Desc.MBR()
	dims := box.Dims()
	pts := make([]geom.Point, 0, in.Points*2)
	for i := 0; i < in.Points; i++ {
		p := make(geom.Point, dims)
		for d := 0; d < dims; d++ {
			p[d] = box.Lo[d] + rng.Float64()*(box.Hi[d]-box.Lo[d])
		}
		pts = append(pts, p)
	}
	if in.Data != nil && in.Data.NumRows() > 0 {
		stride := in.Data.NumRows()/in.Points + 1
		for r := 0; r < in.Data.NumRows(); r += stride {
			p := make(geom.Point, in.Data.Dims())
			for d := 0; d < in.Data.Dims(); d++ {
				p[d] = in.Data.At(r, d)
			}
			pts = append(pts, p)
		}
	}
	return pts
}

func leafVolume(d layout.Descriptor) float64 {
	if ir, ok := d.(layout.Irregular); ok {
		return ir.Region().Volume()
	}
	return d.MBR().Volume()
}

func allRect(children []*layout.Node) bool {
	for _, c := range children {
		if c.Desc.Kind() != layout.KindRect {
			return false
		}
	}
	return true
}

func approxEqual(a, b float64) bool {
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	scale := b
	if scale < 0 {
		scale = -scale
	}
	if s := a; s < 0 {
		s = -s
	} else if s > scale {
		scale = s
	}
	return diff <= volumeRelTol*scale
}

func clipAll(queries []geom.Box, box geom.Box) []geom.Box {
	var out []geom.Box
	for _, q := range queries {
		if inter, ok := q.Intersection(box); ok {
			out = append(out, inter)
		}
	}
	return out
}
