// Package layout defines partition layouts: partitions with rectangular or
// irregular-shaped descriptors (paper §IV-B), the partition tree produced by
// recursive construction (Fig. 10), record routing, the I/O cost model of
// Eq. 1–2, the theoretical lower bound, and layout validation.
package layout

import (
	"fmt"

	"paw/internal/geom"
)

// Kind enumerates descriptor shapes.
type Kind int

const (
	// KindRect is an ordinary rectangular partition descriptor.
	KindRect Kind = iota
	// KindIrregular is an irregular-shaped partition: an outer box minus a
	// set of rectangular holes (the grouped partitions carved out of it).
	KindIrregular
)

// String names the kind for logs and layout summaries.
func (k Kind) String() string {
	switch k {
	case KindRect:
		return "rect"
	case KindIrregular:
		return "irregular"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Descriptor is the semantic description of the records a partition holds.
// The master node keeps descriptors in memory and uses them to decide which
// partitions a query must scan (Fig. 4).
type Descriptor interface {
	// Intersects reports whether a range query must scan this partition.
	Intersects(q geom.Box) bool
	// Contains reports whether a record belongs in this partition's region.
	// Routing resolves boundary ties by child order, so Contains may accept
	// boundary points that a sibling also accepts.
	Contains(p geom.Point) bool
	// MBR is the minimum bounding rectangle of the region.
	MBR() geom.Box
	// Kind tags the descriptor shape.
	Kind() Kind
}

// Rect is a rectangular descriptor.
type Rect struct {
	Box geom.Box
}

// NewRect wraps a box as a descriptor.
func NewRect(b geom.Box) Rect { return Rect{Box: b.Clone()} }

// Intersects implements Descriptor.
func (r Rect) Intersects(q geom.Box) bool { return r.Box.Intersects(q) }

// Contains implements Descriptor.
func (r Rect) Contains(p geom.Point) bool { return r.Box.Contains(p) }

// MBR implements Descriptor.
func (r Rect) MBR() geom.Box { return r.Box }

// Kind implements Descriptor.
func (r Rect) Kind() Kind { return KindRect }

// Irregular is an irregular-shaped descriptor: Outer minus Holes. Hole
// boundaries belong to the holes (the grouped partitions carved out), so the
// region's hole-adjacent faces are open: a query lying exactly inside a
// grouped partition — boundary contact included — never scans the irregular
// partition. This is what makes Multi-Group Split profitable (§IV-B).
type Irregular struct {
	Outer  geom.Box
	Holes  []geom.Box
	region geom.OpenRegion
}

// NewIrregular builds the irregular descriptor Outer \ (holes...).
func NewIrregular(outer geom.Box, holes []geom.Box) Irregular {
	hs := make([]geom.Box, len(holes))
	for i, h := range holes {
		hs[i] = h.Clone()
	}
	return Irregular{
		Outer:  outer.Clone(),
		Holes:  hs,
		region: geom.OpenRegionFromDifference(outer, holes),
	}
}

// Intersects implements Descriptor: a query scans the partition only when it
// reaches past every hole's closed boundary into the leftover region.
func (ir Irregular) Intersects(q geom.Box) bool { return ir.region.IntersectsBox(q) }

// Contains implements Descriptor. Points on hole boundaries are rejected —
// they belong to the grouped partition that owns the hole.
func (ir Irregular) Contains(p geom.Point) bool { return ir.region.Contains(p) }

// MBR implements Descriptor.
func (ir Irregular) MBR() geom.Box { return ir.Outer }

// Kind implements Descriptor.
func (ir Irregular) Kind() Kind { return KindIrregular }

// Region exposes the decomposed region (for visualisation and tests).
func (ir Irregular) Region() geom.OpenRegion { return ir.region }
