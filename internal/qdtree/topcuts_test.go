package qdtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"paw/internal/dataset"
	"paw/internal/geom"
)

// candidates enumerates the Qd-tree cut set for a box the plain way: cuts at
// the lower and upper values of every query on every dimension, restricted to
// cuts that actually separate the box, each once. BestCut enumerates the same
// set per dimension in its scratch.
func candidates(box geom.Box, queries []geom.Box) []Cut {
	var out []Cut
	seen := make(map[Cut]bool)
	add := func(c Cut) {
		if !c.Inside(box) {
			return
		}
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	for _, q := range queries {
		for dim := range q.Lo {
			add(CutAtLower(dim, q.Lo[dim]))
			add(CutAtUpper(dim, q.Hi[dim]))
		}
	}
	return out
}

// sortTopCuts returns the k cheapest admissible cuts the way the cut search
// once did: it sorts every dimension's row values and counts each candidate's
// left rows by binary search. At k = 1 it is the oracle for BestCut's
// bucketed count and its tie rule (the first candidate of strictly least cost
// wins).
func sortTopCuts(data *dataset.Dataset, box geom.Box, rows []int, queries []geom.Box, extra []Cut, minRows, k int) []CutCost {
	var top []CutCost
	seen := make(map[Cut]bool)
	total, nq := len(rows), len(queries)
	rowVals := make([]float64, total)
	qLo, qHi := make([]float64, nq), make([]float64, nq)
	for dim := 0; dim < box.Dims(); dim++ {
		col := data.Column(dim)
		for i, r := range rows {
			rowVals[i] = col[r]
		}
		sort.Float64s(rowVals)
		for i, q := range queries {
			qLo[i], qHi[i] = q.Lo[dim], q.Hi[dim]
		}
		sort.Float64s(qLo)
		sort.Float64s(qHi)
		try := func(c Cut) {
			if !c.Inside(box) || seen[c] {
				return
			}
			seen[c] = true
			leftRows := countLE(rowVals, c.LeftHi)
			rightRows := total - leftRows
			if leftRows < minRows || rightRows < minRows {
				return
			}
			cost := int64(leftRows)*int64(countLE(qLo, c.LeftHi)) + int64(rightRows)*int64(nq-countLT(qHi, c.RightLo))
			if len(top) == k && cost >= top[k-1].Cost {
				return
			}
			pos := sort.Search(len(top), func(i int) bool { return top[i].Cost > cost })
			top = append(top, CutCost{})
			copy(top[pos+1:], top[pos:])
			top[pos] = CutCost{Cut: c, Cost: cost, LeftRows: leftRows}
			if len(top) > k {
				top = top[:k]
			}
		}
		for _, q := range queries {
			try(CutAtLower(dim, q.Lo[dim]))
			try(CutAtUpper(dim, q.Hi[dim]))
		}
		for _, c := range extra {
			if c.Dim == dim {
				try(c)
			}
		}
	}
	return top
}

// TestBestCutMatchesSortOracle compares the bucketed BestCut with the
// sort-based oracle on random nodes whose rows repeat values, hold both zeros
// and NaNs, and have all-equal columns, with query bounds and extra cuts
// placed on row values. On the same nodes it checks every threshold's left
// count from bucketRows against the sorted count, so an admissible candidate
// that is not the best still has its row split checked.
func TestBestCutMatchesSortOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	negZero := math.Copysign(0, -1)
	palette := []float64{math.NaN(), negZero, 0, 1, 2, 3, -1, 0.5}
	pick := func() float64 { return palette[1+r.Intn(len(palette)-1)] } // never NaN
	sc := NewScratch()
	for trial := 0; trial < 500; trial++ {
		dims := 1 + r.Intn(3)
		n := 1 + r.Intn(60)
		cols := make([][]float64, dims)
		for d := range cols {
			cols[d] = make([]float64, n)
			constant := r.Intn(5) == 0
			for i := range cols[d] {
				switch {
				case constant:
					cols[d][i] = 1
				case r.Intn(8) == 0:
					cols[d][i] = math.NaN()
				default:
					cols[d][i] = palette[1+r.Intn(len(palette)-1)]
				}
			}
		}
		names := []string{"a", "b", "c"}[:dims]
		data := dataset.MustNew(names, cols)
		box := geom.Box{Lo: make(geom.Point, dims), Hi: make(geom.Point, dims)}
		for d := range box.Lo {
			box.Lo[d], box.Hi[d] = -1, 3
		}
		var queries []geom.Box
		for i := r.Intn(12); i > 0; i-- {
			q := geom.Box{Lo: make(geom.Point, dims), Hi: make(geom.Point, dims)}
			for d := range q.Lo {
				a, b := pick(), pick()
				q.Lo[d], q.Hi[d] = min(a, b), max(a, b)
			}
			queries = append(queries, q)
		}
		var extra []Cut
		for i := r.Intn(4); i > 0; i-- {
			extra = append(extra, CutAtUpper(r.Intn(dims), pick()))
		}
		rows := make([]int, 0, n)
		for i := 0; i < n; i++ {
			if r.Intn(6) != 0 {
				rows = append(rows, i)
			}
		}
		minRows := 1 + r.Intn(max(1, len(rows)/2))
		got, ok := BestCut(data, box, rows, queries, extra, minRows, sc)
		want := sortTopCuts(data, box, rows, queries, extra, minRows, 1)
		if ok != (len(want) == 1) || ok && got != want[0] {
			t.Fatalf("trial %d: BestCut %+v (ok %v), sort oracle %+v", trial, got, ok, want)
		}

		vals := make([]float64, len(rows))
		for dim := 0; dim < dims; dim++ {
			col := data.Column(dim)
			for i, row := range rows {
				vals[i] = col[row]
			}
			sort.Float64s(vals)
			sc.thresh = sc.thresh[:0]
			for _, c := range append(candidates(box, queries), extra...) {
				if c.Dim == dim && c.Inside(box) {
					sc.thresh = append(sc.thresh, c.LeftHi)
				}
			}
			thresh, le := sc.bucketRows(col, rows)
			for i, x := range thresh {
				if want := countLE(vals, x); le[i] != want {
					t.Fatalf("trial %d dim %d: %d rows <= %v by bucketRows, %d by the sorted count", trial, dim, le[i], x, want)
				}
			}
		}
	}
}

// TestBucketRowsGrid checks bucketRows' left counts against a plain count on
// threshold sets that stress its grid: clustered thresholds beside far
// outliers, spans too small or too large for a finite cell scale, infinite
// and subnormal thresholds, duplicates; and on row values at every threshold,
// one float either side of it, outside the range, ±Inf and NaN.
func TestBucketRowsGrid(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	inf := math.Inf(1)
	kinds := []func() float64{
		func() float64 { return r.Float64() },
		func() float64 { return 0.5 + r.Float64()*1e-9 },
		func() float64 { return -1e308 },
		func() float64 { return 1e308 },
		func() float64 { return 5e-324 },
		func() float64 { return -inf },
		func() float64 { return inf },
		func() float64 { return float64(r.Intn(4)) },
	}
	sc := NewScratch()
	for trial := 0; trial < 2000; trial++ {
		sc.thresh = sc.thresh[:0]
		mix := r.Perm(len(kinds))[:1+r.Intn(3)]
		for i := 1 + r.Intn(40); i > 0; i-- {
			sc.thresh = append(sc.thresh, kinds[mix[r.Intn(len(mix))]]())
		}
		var col []float64
		for _, x := range sc.thresh {
			col = append(col, x, math.Nextafter(x, -inf), math.Nextafter(x, inf))
		}
		col = append(col, math.NaN(), -inf, inf, 0, -2, 2, r.NormFloat64())
		rows := r.Perm(len(col))
		thresh, le := sc.bucketRows(col, rows)
		for i, x := range thresh {
			want := 0
			for _, v := range col {
				if !(v > x) {
					want++
				}
			}
			if le[i] != want {
				t.Fatalf("trial %d: %d rows <= %v or NaN by bucketRows, %d counted (thresholds %v)", trial, le[i], x, want, thresh)
			}
		}
	}
}
