// Package geom provides d-dimensional axis-aligned geometry primitives used
// throughout the partitioner: points, closed boxes, box algebra (clipping,
// subtraction); halfopen.go adds the half-open boxes and regions that
// describe irregular partitions.
//
// All boxes are closed on both ends: a point x lies in box b when
// b.Lo[d] <= x[d] <= b.Hi[d] for every dimension d. Closed semantics match
// the range-query model of the paper (SQL predicates such as A >= 10 AND
// A <= 50 translate to closed intervals).
package geom

import (
	"fmt"
	"math"
	"strings"
)

// Point is a d-dimensional point. The slice length is the dimensionality.
type Point []float64

// Clone returns an independent copy of p.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Box is a closed axis-aligned d-dimensional rectangle [Lo, Hi].
// A Box is empty when Lo[d] > Hi[d] for some dimension d.
type Box struct {
	Lo, Hi Point
}

// NewBox builds a box from lower and upper corners. It panics when the
// corners disagree on dimensionality, since that is always a programming
// error rather than a data error.
func NewBox(lo, hi Point) Box {
	if len(lo) != len(hi) {
		panic(fmt.Sprintf("geom: corner dimensionality mismatch: %d vs %d", len(lo), len(hi)))
	}
	return Box{Lo: lo.Clone(), Hi: hi.Clone()}
}

// UnitBox returns the box [0,1]^dims.
func UnitBox(dims int) Box {
	lo := make(Point, dims)
	hi := make(Point, dims)
	for d := range hi {
		hi[d] = 1
	}
	return Box{Lo: lo, Hi: hi}
}

// UniverseBox returns the box (-inf, +inf)^dims, which intersects everything.
func UniverseBox(dims int) Box {
	lo := make(Point, dims)
	hi := make(Point, dims)
	for d := range lo {
		lo[d] = math.Inf(-1)
		hi[d] = math.Inf(1)
	}
	return Box{Lo: lo, Hi: hi}
}

// Dims returns the dimensionality of the box.
func (b Box) Dims() int { return len(b.Lo) }

// Clone returns a deep copy of b.
func (b Box) Clone() Box {
	return Box{Lo: b.Lo.Clone(), Hi: b.Hi.Clone()}
}

// IsEmpty reports whether the box contains no points.
func (b Box) IsEmpty() bool {
	for d := range b.Lo {
		if b.Lo[d] > b.Hi[d] {
			return true
		}
	}
	return len(b.Lo) == 0
}

// Contains reports whether point x lies inside the closed box.
func (b Box) Contains(x Point) bool {
	for d := range b.Lo {
		if x[d] < b.Lo[d] || x[d] > b.Hi[d] {
			return false
		}
	}
	return true
}

// ContainsBox reports whether o is entirely inside b. An empty o is
// contained in everything.
func (b Box) ContainsBox(o Box) bool {
	if o.IsEmpty() {
		return true
	}
	for d := range b.Lo {
		if o.Lo[d] < b.Lo[d] || o.Hi[d] > b.Hi[d] {
			return false
		}
	}
	return true
}

// Intersects reports whether the closed boxes share at least one point.
func (b Box) Intersects(o Box) bool {
	if b.IsEmpty() || o.IsEmpty() {
		return false
	}
	for d := range b.Lo {
		if b.Lo[d] > o.Hi[d] || o.Lo[d] > b.Hi[d] {
			return false
		}
	}
	return true
}

// Intersection returns b ∩ o and whether it is non-empty.
func (b Box) Intersection(o Box) (Box, bool) {
	if !b.Intersects(o) {
		return Box{}, false
	}
	lo := make(Point, b.Dims())
	hi := make(Point, b.Dims())
	for d := range lo {
		lo[d] = math.Max(b.Lo[d], o.Lo[d])
		hi[d] = math.Min(b.Hi[d], o.Hi[d])
	}
	return Box{Lo: lo, Hi: hi}, true
}

// Clip returns b clipped to the bounds of o (the same as Intersection but
// returns an empty box instead of a flag).
func (b Box) Clip(o Box) Box {
	if r, ok := b.Intersection(o); ok {
		return r
	}
	// A canonical empty box of the right dimensionality.
	lo := make(Point, b.Dims())
	hi := make(Point, b.Dims())
	for d := range lo {
		lo[d], hi[d] = 1, 0
	}
	return Box{Lo: lo, Hi: hi}
}

// Volume returns the d-dimensional volume of the box. Empty boxes have
// volume 0. Degenerate boxes (zero extent in some dimension) also have
// volume 0 even though they may contain points.
func (b Box) Volume() float64 {
	if b.IsEmpty() {
		return 0
	}
	v := 1.0
	for d := range b.Lo {
		v *= b.Hi[d] - b.Lo[d]
	}
	return v
}

// Center returns the center vector GP.c of the box (paper §IV-B).
func (b Box) Center() Point {
	c := make(Point, b.Dims())
	for d := range c {
		c[d] = (b.Lo[d] + b.Hi[d]) / 2
	}
	return c
}

// Radius returns the radius vector GP.r of the box (paper §IV-B): half the
// extent along every dimension.
func (b Box) Radius() Point {
	r := make(Point, b.Dims())
	for d := range r {
		r[d] = (b.Hi[d] - b.Lo[d]) / 2
	}
	return r
}

// Extend grows the box by delta on both ends of every dimension. This is the
// query-extension operation that produces the worst-case workload Q*F
// (paper §IV-A): [q.l − δ, q.u + δ].
func (b Box) Extend(delta float64) Box {
	lo := make(Point, b.Dims())
	hi := make(Point, b.Dims())
	for d := range lo {
		lo[d] = b.Lo[d] - delta
		hi[d] = b.Hi[d] + delta
	}
	return Box{Lo: lo, Hi: hi}
}

// Scale enlarges the box around its center by factor f along every
// dimension: GP' = GP.c ± f·GP.r (paper Fig. 8).
func (b Box) Scale(f float64) Box {
	c := b.Center()
	r := b.Radius()
	lo := make(Point, b.Dims())
	hi := make(Point, b.Dims())
	for d := range lo {
		lo[d] = c[d] - f*r[d]
		hi[d] = c[d] + f*r[d]
	}
	return Box{Lo: lo, Hi: hi}
}

// Equal reports exact equality of corners.
func (b Box) Equal(o Box) bool {
	if b.Dims() != o.Dims() {
		return false
	}
	for d := range b.Lo {
		if b.Lo[d] != o.Lo[d] || b.Hi[d] != o.Hi[d] {
			return false
		}
	}
	return true
}

// String renders the box as [lo1,hi1]x[lo2,hi2]x...
func (b Box) String() string {
	var sb strings.Builder
	for d := range b.Lo {
		if d > 0 {
			sb.WriteByte('x')
		}
		fmt.Fprintf(&sb, "[%g,%g]", b.Lo[d], b.Hi[d])
	}
	return sb.String()
}

// MBR returns the minimum bounding rectangle of the given boxes. It panics
// on an empty input because an MBR of nothing has no dimensionality.
func MBR(boxes ...Box) Box {
	if len(boxes) == 0 {
		panic("geom: MBR of zero boxes")
	}
	out := boxes[0].Clone()
	for _, b := range boxes[1:] {
		for d := range out.Lo {
			out.Lo[d] = math.Min(out.Lo[d], b.Lo[d])
			out.Hi[d] = math.Max(out.Hi[d], b.Hi[d])
		}
	}
	return out
}

// Subtract computes a \ b as a set of disjoint boxes covering exactly the
// points of a that are not interior to b. The result has at most 2·dims
// boxes. Boundary points shared with b may appear in the result (closed-box
// subtraction cannot represent half-open slabs); callers that partition
// *records* resolve ties by explicit membership tests, and all volume-based
// reasoning is unaffected because boundaries have measure zero.
func Subtract(a, b Box) []Box {
	inter, ok := a.Intersection(b)
	if !ok {
		return []Box{a.Clone()}
	}
	if inter.Equal(a) {
		return nil
	}
	var out []Box
	rest := a.Clone()
	for d := 0; d < a.Dims(); d++ {
		// Slab below b in dimension d.
		if rest.Lo[d] < inter.Lo[d] {
			s := rest.Clone()
			s.Hi[d] = inter.Lo[d]
			out = append(out, s)
			rest.Lo[d] = inter.Lo[d]
		}
		// Slab above b in dimension d.
		if rest.Hi[d] > inter.Hi[d] {
			s := rest.Clone()
			s.Lo[d] = inter.Hi[d]
			out = append(out, s)
			rest.Hi[d] = inter.Hi[d]
		}
	}
	return out
}
