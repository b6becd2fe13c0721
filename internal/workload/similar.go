package workload

import (
	"fmt"
	"math"
	"sort"
)

// AreSimilar decides Definition 2: whether hist (QH) and future (QF) are
// δ-similar, i.e. whether there is a matching M ⊂ QF×QH in which every
// future query appears exactly once, every historical query appears exactly
// |QF|/|QH| times, and every matched pair is within distance delta.
//
// It returns an error when |QF| is not divisible by |QH| (the definition
// requires divisibility).
func AreSimilar(hist, future Workload, delta float64) (bool, error) {
	m := newMatcher(hist, future)
	if m.err != nil {
		return false, m.err
	}
	return m.feasible(delta), nil
}

// MinimalDelta returns the smallest δ′ such that hist and future are
// δ′-similar (the bottleneck assignment value). It is the core of the §IV-E
// estimation heuristic.
func MinimalDelta(hist, future Workload) (float64, error) {
	m := newMatcher(hist, future)
	if m.err != nil {
		return 0, m.err
	}
	// Candidate thresholds are exactly the pairwise distances.
	cand := make([]float64, 0, len(m.dist)*len(m.dist[0]))
	for _, row := range m.dist {
		cand = append(cand, row...)
	}
	sort.Float64s(cand)
	cand = dedupFloats(cand)
	// Binary search the smallest feasible threshold. The largest candidate
	// is always feasible: with all edges present the graph is complete
	// bipartite and right capacities sum to exactly |QF|.
	lo, hi := 0, len(cand)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if m.feasible(cand[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return cand[lo], nil
}

// EstimateDelta implements the §IV-E heuristic for unknown δ: split the
// historical workload into two equal halves by timestamp ("past" and
// "future") and return the smallest δ′ under which the newer half looks like
// a drift of the older one.
//
// The estimate is the directed Hausdorff distance from the newer half to the
// older half: max over new queries of the distance to their nearest old
// query. This is Definition 2 without the capacity condition (iii). The
// strict capacity-constrained bottleneck (MinimalDelta between the halves;
// TestEstimateDeltaClustered) degenerates on clustered workloads: whenever the halves' per-cluster counts differ —
// which independent samples almost always do — some query is forced to match
// across clusters and δ′ jumps to the inter-cluster distance, grossly
// over-extending every query. The capacity-free variant reproduces the
// paper's Fig. 22a behaviour (PAW-unknown within a few × of PAW on uniform
// workloads and comparable on skewed ones).
func EstimateDelta(hist Workload) (float64, error) {
	if len(hist) < 2 {
		return 0, fmt.Errorf("workload: need at least 2 queries to estimate delta, have %d", len(hist))
	}
	h1, h2 := hist.SplitHalves()
	return DirectedDelta(h1, h2), nil
}

// DirectedDelta returns the directed Hausdorff distance from live to ref
// under the Definition 1 query metric: the largest distance any live query
// must travel to reach its nearest reference query. It is Definition 2's δ
// without the capacity condition — the same relaxation EstimateDelta applies
// to history halves — and is what the drift monitor evaluates online: a live
// window whose DirectedDelta against the historical workload exceeds the
// layout's δ contains queries no Q*F extension accounted for. Empty inputs
// yield 0 (an empty live window has drifted nowhere; an empty reference
// would make every distance infinite, which no finite δ comparison wants).
func DirectedDelta(ref, live Workload) float64 {
	if len(ref) == 0 || len(live) == 0 {
		return 0
	}
	est := 0.0
	for _, q := range live {
		nn := math.Inf(1)
		for _, p := range ref {
			if d := Dist(q, p); d < nn {
				nn = d
			}
		}
		if nn > est {
			est = nn
		}
	}
	return est
}

func checkDivisible(hist, future Workload) error {
	if len(hist) == 0 || len(future) == 0 {
		return fmt.Errorf("workload: empty workload (|QH|=%d, |QF|=%d)", len(hist), len(future))
	}
	if len(future)%len(hist) != 0 {
		return fmt.Errorf("workload: |QF|=%d not divisible by |QH|=%d", len(future), len(hist))
	}
	return nil
}

// matcher holds the precomputed distance matrix and scratch state for
// repeated Hopcroft–Karp feasibility tests at different thresholds.
type matcher struct {
	dist [][]float64 // dist[f][h]
	k    int         // capacity of each historical query
	err  error

	// Hopcroft–Karp state over left = future queries, right = historical
	// queries replicated k times (right index = h*k + copy).
	matchL, matchR, layer, queue, iter []int
}

func newMatcher(hist, future Workload) *matcher {
	m := &matcher{}
	if err := checkDivisible(hist, future); err != nil {
		m.err = err
		return m
	}
	m.k = len(future) / len(hist)
	m.dist = make([][]float64, len(future))
	for i, qf := range future {
		row := make([]float64, len(hist))
		for j, qh := range hist {
			row[j] = Dist(qf, qh)
		}
		m.dist[i] = row
	}
	n := len(future)
	r := len(hist) * m.k
	m.matchL = make([]int, n)
	m.matchR = make([]int, r)
	m.layer = make([]int, n)
	m.queue = make([]int, 0, n)
	m.iter = make([]int, n)
	return m
}

const unmatched = -1

// feasible runs Hopcroft–Karp and reports whether a perfect matching of the
// left side exists using only edges with distance <= delta.
func (m *matcher) feasible(delta float64) bool {
	n := len(m.matchL)
	for i := range m.matchL {
		m.matchL[i] = unmatched
	}
	for i := range m.matchR {
		m.matchR[i] = unmatched
	}
	matched := 0
	for {
		if !m.bfs(delta) {
			break
		}
		for i := range m.iter {
			m.iter[i] = 0
		}
		for u := 0; u < n; u++ {
			if m.matchL[u] == unmatched && m.dfs(u, delta) {
				matched++
			}
		}
	}
	return matched == n
}

// bfs layers the left vertices by shortest alternating path from any free
// left vertex; returns false when no augmenting path exists.
func (m *matcher) bfs(delta float64) bool {
	const inf = int(^uint(0) >> 1)
	m.queue = m.queue[:0]
	for u := range m.layer {
		if m.matchL[u] == unmatched {
			m.layer[u] = 0
			m.queue = append(m.queue, u)
		} else {
			m.layer[u] = inf
		}
	}
	found := false
	for qi := 0; qi < len(m.queue); qi++ {
		u := m.queue[qi]
		row := m.dist[u]
		for h, d := range row {
			if d > delta {
				continue
			}
			for c := 0; c < m.k; c++ {
				v := h*m.k + c
				w := m.matchR[v]
				if w == unmatched {
					found = true
				} else if m.layer[w] == inf {
					m.layer[w] = m.layer[u] + 1
					m.queue = append(m.queue, w)
				}
			}
		}
	}
	return found
}

// dfs searches for an augmenting path from left vertex u along the BFS
// layers, advancing a per-vertex edge cursor so each edge is scanned once
// per phase.
func (m *matcher) dfs(u int, delta float64) bool {
	row := m.dist[u]
	nEdges := len(row) * m.k
	for ; m.iter[u] < nEdges; m.iter[u]++ {
		e := m.iter[u]
		h := e / m.k
		if row[h] > delta {
			// Skip the remaining copies of this historical query.
			m.iter[u] = (h+1)*m.k - 1
			continue
		}
		v := h*m.k + e%m.k
		w := m.matchR[v]
		if w == unmatched || (m.layer[w] == m.layer[u]+1 && m.dfs(w, delta)) {
			m.matchL[u] = v
			m.matchR[v] = u
			return true
		}
	}
	return false
}

func dedupFloats(a []float64) []float64 {
	if len(a) == 0 {
		return a
	}
	out := a[:1]
	for _, v := range a[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}
