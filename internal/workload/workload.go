// Package workload models query workloads: range queries, the L∞ query
// distance of Definition 1, δ-similarity of workloads (Definition 2, decided
// by bipartite matching), the worst-case extended workload Q*F of §IV-A, the
// δ′ estimation heuristic of §IV-E, and the uniform/skewed workload
// generators used throughout the paper's evaluation (Table III).
package workload

import (
	"math"

	"paw/internal/geom"
)

// Query is a multi-dimensional range query. Seq is a logical timestamp used
// to order historical queries when simulating past/future halves (§IV-E).
type Query struct {
	Box geom.Box
	Seq int64
}

// Workload is an ordered collection of queries.
type Workload []Query

// Boxes returns the query boxes in order.
func (w Workload) Boxes() []geom.Box {
	out := make([]geom.Box, len(w))
	for i, q := range w {
		out[i] = q.Box
	}
	return out
}

// Clone deep-copies the workload.
func (w Workload) Clone() Workload {
	out := make(Workload, len(w))
	for i, q := range w {
		out[i] = Query{Box: q.Box.Clone(), Seq: q.Seq}
	}
	return out
}

// Dist is the distance between two queries from Definition 1: the maximal
// difference of any bound on any dimension (L∞ over the 2·dmax bound
// vector).
func Dist(a, b Query) float64 {
	d := 0.0
	for dim := range a.Box.Lo {
		if v := math.Abs(a.Box.Lo[dim] - b.Box.Lo[dim]); v > d {
			d = v
		}
		if v := math.Abs(a.Box.Hi[dim] - b.Box.Hi[dim]); v > d {
			d = v
		}
	}
	return d
}

// Extend builds the worst-case workload Q*F (§IV-A): every query is grown by
// delta in all directions. Lemma 1 shows that optimising a layout against
// this single workload optimises the worst case over all δ-similar future
// workloads.
func (w Workload) Extend(delta float64) Workload {
	out := make(Workload, len(w))
	for i, q := range w {
		out[i] = Query{Box: q.Box.Extend(delta), Seq: q.Seq}
	}
	return out
}

// Clip returns the sub-workload of queries intersecting box p, with each
// query clipped to p. This is Q*F(P) in Algorithms 1–3.
func (w Workload) Clip(p geom.Box) Workload {
	var out Workload
	for _, q := range w {
		if inter, ok := q.Box.Intersection(p); ok {
			out = append(out, Query{Box: inter, Seq: q.Seq})
		}
	}
	return out
}

// SplitHalves divides the workload into two equal halves by Seq order,
// simulating "past" and "future" for δ′ estimation (§IV-E). The workload
// length must be even; odd lengths put the extra query in the first half.
func (w Workload) SplitHalves() (Workload, Workload) {
	s := w.Clone()
	// Insertion sort by Seq; workloads are small and usually pre-sorted.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].Seq < s[j-1].Seq; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	mid := (len(s) + 1) / 2
	return s[:mid], s[mid:]
}
