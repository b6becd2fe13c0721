package layout

import (
	"fmt"

	"paw/internal/geom"
)

// Subtree patching: the drift re-partitioner (internal/drift) rebuilds only
// the violated region of a layout and splices the replacement subtree into a
// fresh sealed layout. Partition IDs stay dense (Seal renumbers the leaves in
// pre-order — every cost, routing and placement path indexes l.Parts[id]
// directly), so the patch reports how the old IDs map onto the new ones and
// the migration layer translates: unchanged partitions are renamed, the
// replaced region's partitions are removed, and the replacement's partitions
// are added.
//
// Because both the old and the new layout enumerate the untouched leaves in
// the same pre-order, the Renamed mapping is strictly increasing — a sorted
// old-ID list stays sorted after translation, which the master's per-partition
// cache sweep relies on.

// Diff maps one sealed layout's partitions onto its patched successor's.
type Diff struct {
	// Renamed maps the ID of every partition that survived the patch
	// unchanged (same descriptor, same rows) to its ID in the new layout.
	Renamed map[ID]ID
	// Added lists the new layout's partitions that did not exist before
	// (the replacement subtree's leaves), ascending.
	Added []ID
	// Removed lists the old layout's partitions that no longer exist (the
	// replaced subtree's leaves), ascending.
	Removed []ID
}

// PatchSubtree returns a new sealed layout equal to l with the subtree rooted
// at target replaced by repl, plus the ID diff between the two layouts. The
// inputs are not mutated: every node and partition outside the replaced
// region is cloned, so the old layout keeps serving while the new one is
// migrated in. repl is owned by the new layout after the call.
//
// target must be a node of l's tree (matched by identity), and repl must
// cover exactly the same region (equal descriptor MBRs) so the patched tree
// still tiles the domain. repl's leaves must carry partitions with their
// FullRows already set — the patch preserves them; Names, the recipe and
// TotalBytes carry over unchanged (the patch conserves the row population).
func PatchSubtree(l *Layout, target *Node, repl *Node) (*Layout, Diff, error) {
	if l == nil || l.Root == nil {
		return nil, Diff{}, fmt.Errorf("layout: patch of unsealed layout")
	}
	if target == nil || repl == nil {
		return nil, Diff{}, fmt.Errorf("layout: patch needs a target and a replacement")
	}
	found := false
	l.Root.Walk(func(n *Node) {
		if n == target {
			found = true
		}
	})
	if !found {
		return nil, Diff{}, fmt.Errorf("layout: patch target is not a node of this layout")
	}
	if !target.Desc.MBR().Equal(repl.Desc.MBR()) {
		return nil, Diff{}, fmt.Errorf("layout: replacement covers %v, target covers %v",
			repl.Desc.MBR(), target.Desc.MBR())
	}
	if len(repl.Leaves()) == 0 {
		return nil, Diff{}, fmt.Errorf("layout: replacement subtree has no leaves")
	}

	// oldOf maps each cloned partition back to the original it shadows, so
	// the diff can pair old and new IDs after Seal renumbers.
	oldOf := make(map[*Partition]*Partition)
	newRoot := cloneExcept(l.Root, target, repl, oldOf)

	nl := Seal(l.Method, newRoot, l.RowBytes)
	nl.TotalBytes, nl.Unrouted, nl.Names = l.TotalBytes, l.Unrouted, l.Names
	nl.MinRows, nl.SampleRate = l.MinRows, l.SampleRate

	d := Diff{Renamed: make(map[ID]ID, len(oldOf))}
	for _, p := range nl.Parts {
		if old, ok := oldOf[p]; ok {
			d.Renamed[old.ID] = p.ID
		} else {
			d.Added = append(d.Added, p.ID)
		}
	}
	for _, leaf := range target.Leaves() {
		d.Removed = append(d.Removed, leaf.Part.ID)
	}
	return nl, d, nil
}

// cloneExcept deep-clones the tree under n, substituting repl for target.
// Cloned leaves get fresh Partition structs (Seal mutates IDs in place; the
// old layout must stay untouched) recorded in oldOf.
func cloneExcept(n, target, repl *Node, oldOf map[*Partition]*Partition) *Node {
	if n == target {
		return repl
	}
	c := &Node{Desc: n.Desc}
	if n.Part != nil {
		p := *n.Part
		c.Part = &p
		oldOf[c.Part] = n.Part
		return c
	}
	c.Children = make([]*Node, len(n.Children))
	for i, ch := range n.Children {
		c.Children[i] = cloneExcept(ch, target, repl, oldOf)
	}
	return c
}

// SubtreeFor returns the smallest rectangular-descriptor node of l whose
// region contains q — the rebuild target the drift controller hands to
// PatchSubtree. The root always qualifies (its descriptor covers the
// domain), so the result is never nil on a sealed layout; nil only when the
// layout has no tree. The descent stops before irregular descriptors:
// replacement subtrees are built over rectangular domains.
func (l *Layout) SubtreeFor(q geom.Box) *Node {
	if l == nil || l.Root == nil {
		return nil
	}
	cur := l.Root
	for {
		var next *Node
		for _, c := range cur.Children {
			if c.IsLeaf() {
				continue
			}
			if c.Desc.Kind() == KindRect && c.Desc.MBR().ContainsBox(q) {
				next = c
				break
			}
		}
		if next == nil {
			return cur
		}
		cur = next
	}
}
