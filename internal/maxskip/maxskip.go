// Package maxskip implements the bottom-up feature-vector clustering
// partitioner of Sun et al. (SIGMOD 2014) — the paper's reference [28] and
// the predecessor the Qd-tree was shown to beat by up to 61× (§II-A). It
// serves as an additional baseline in this reproduction.
//
// Every record is described by its binary query-incidence vector (bit j set
// iff the record matches workload query j). Records with identical vectors
// form initial cells; cells are merged bottom-up, smallest first, each time
// choosing the partner that minimises the false-scan penalty of the union
// vector, until every partition reaches the minimum size bmin.
//
// The resulting partitions are not spatially contiguous, so records are
// routed by feature vector (unknown vectors go to the nearest cell by
// Hamming distance) and the stored descriptor is the MBR of the routed
// records — the min-max pruning a real deployment would use for queries
// outside the training workload.
package maxskip

import (
	"math"
	"math/bits"
	"sort"

	"paw/internal/dataset"
	"paw/internal/geom"
	"paw/internal/layout"
)

// Params configures the build.
type Params struct {
	// MinRows is bmin in rows of the clustering input.
	MinRows int
}

// Build clusters the given rows against the workload, routes the full
// dataset by feature vector, and returns a sealed, fully routed flat layout
// whose descriptors are the per-partition record MBRs.
func Build(data *dataset.Dataset, rows []int, queries []geom.Box, p Params) *layout.Layout {
	if p.MinRows < 1 {
		p.MinRows = 1
	}
	words := (len(queries) + 63) / 64
	cells := buildCells(data, rows, queries, words)
	cells = mergeToMin(cells, words, p.MinRows, len(queries))

	// Route every record of the full dataset: exact vector match first,
	// nearest cell by Hamming distance otherwise.
	index := make(map[string]int, len(cells))
	for i, c := range cells {
		index[string(vecBytes(c.vec))] = i
	}
	members := make([][]int, len(cells))
	vec := make([]uint64, words)
	for r := 0; r < data.NumRows(); r++ {
		rowVector(data, r, queries, vec)
		ci, ok := index[string(vecBytes(vec))]
		if !ok {
			ci = nearestCell(cells, vec)
		}
		members[ci] = append(members[ci], r)
	}

	// The union feature vector of the records actually routed to each cell
	// (the clustering sample may under-approximate the cell's true vector).
	unions := make([][]uint64, len(cells))
	for ci := range cells {
		unions[ci] = make([]uint64, words)
	}
	for ci, ms := range members {
		for _, r := range ms {
			rowVector(data, r, queries, vec)
			for w := 0; w < words; w++ {
				unions[ci][w] |= vec[w]
			}
		}
	}

	// Materialise the flat layout. Empty cells (possible when the full
	// dataset routes differently than the clustering rows) are dropped.
	domain := data.Domain()
	training := make([]geom.Box, len(queries))
	for i, q := range queries {
		training[i] = q.Clone()
	}
	root := &layout.Node{Desc: layout.NewRect(domain)}
	for ci := range cells {
		if len(members[ci]) == 0 {
			continue
		}
		d := FeatureDescriptor{
			mbr:      rowsMBR(data, members[ci]),
			training: training,
			bits:     unions[ci],
		}
		part := &layout.Partition{Desc: d, FullRows: int64(len(members[ci]))}
		root.Children = append(root.Children, &layout.Node{Desc: d, Part: part})
	}
	l := layout.Seal("maxskip", root, data.RowBytes())
	l.TotalBytes = data.TotalBytes()
	return l
}

// FeatureDescriptor is the skipping index of Sun et al.: a query from the
// training workload skips the partition when the partition's union feature
// vector lacks the query's bit; any other query falls back to min-max (MBR)
// pruning. This is exactly why the approach overfits — the index says
// nothing useful about queries outside the training workload.
type FeatureDescriptor struct {
	mbr      geom.Box
	training []geom.Box
	bits     []uint64
}

// Intersects implements layout.Descriptor.
func (d FeatureDescriptor) Intersects(q geom.Box) bool {
	for j, tq := range d.training {
		if q.Equal(tq) {
			return d.bits[j/64]&(1<<uint(j%64)) != 0
		}
	}
	return d.mbr.Intersects(q)
}

// Contains implements layout.Descriptor. Feature-based partitions overlap
// spatially, so geometric containment is approximate (records are routed by
// vector, not by the tree); the MBR answer is only used by generic tooling.
func (d FeatureDescriptor) Contains(p geom.Point) bool { return d.mbr.Contains(p) }

// MBR implements layout.Descriptor.
func (d FeatureDescriptor) MBR() geom.Box { return d.mbr }

// Kind implements layout.Descriptor.
func (d FeatureDescriptor) Kind() layout.Kind { return layout.KindRect }

type cell struct {
	vec   []uint64
	count int
}

// buildCells groups rows by identical feature vectors.
func buildCells(data *dataset.Dataset, rows []int, queries []geom.Box, words int) []cell {
	byVec := make(map[string]*cell)
	vec := make([]uint64, words)
	for _, r := range rows {
		rowVector(data, r, queries, vec)
		key := string(vecBytes(vec))
		if c, ok := byVec[key]; ok {
			c.count++
			continue
		}
		cp := make([]uint64, words)
		copy(cp, vec)
		byVec[key] = &cell{vec: cp, count: 1}
	}
	out := make([]cell, 0, len(byVec))
	for _, c := range byVec {
		out = append(out, *c)
	}
	// Deterministic order: by vector bytes.
	sort.Slice(out, func(i, j int) bool {
		return string(vecBytes(out[i].vec)) < string(vecBytes(out[j].vec))
	})
	return out
}

// mergeToMin repeatedly merges the smallest undersized cell with the partner
// of minimal penalty until all cells hold at least minRows rows (or one cell
// remains). Penalty of merging A and B: the extra rows scanned because the
// union vector forces B's rows on A's queries and vice versa.
func mergeToMin(cells []cell, words, minRows, nq int) []cell {
	for len(cells) > 1 {
		// Find the smallest cell below the minimum.
		smallest := -1
		for i, c := range cells {
			if c.count < minRows && (smallest < 0 || c.count < cells[smallest].count) {
				smallest = i
			}
		}
		if smallest < 0 {
			break
		}
		best := -1
		var bestPenalty int64
		for j := range cells {
			if j == smallest {
				continue
			}
			p := mergePenalty(cells[smallest], cells[j])
			if best < 0 || p < bestPenalty {
				best, bestPenalty = j, p
			}
		}
		a, b := cells[smallest], cells[best]
		merged := cell{vec: make([]uint64, words), count: a.count + b.count}
		for w := 0; w < words; w++ {
			merged.vec[w] = a.vec[w] | b.vec[w]
		}
		// Remove the higher index first.
		i, j := smallest, best
		if i < j {
			i, j = j, i
		}
		cells = append(cells[:i], cells[i+1:]...)
		cells = append(cells[:j], cells[j+1:]...)
		cells = append(cells, merged)
	}
	return cells
}

// mergePenalty is the false-scan cost increase of unioning two cells:
// cost(A∪B) − cost(A) − cost(B), with cost(C) = rows(C) · queries(C).
func mergePenalty(a, b cell) int64 {
	qa, qb, qu := 0, 0, 0
	for w := range a.vec {
		qa += bits.OnesCount64(a.vec[w])
		qb += bits.OnesCount64(b.vec[w])
		qu += bits.OnesCount64(a.vec[w] | b.vec[w])
	}
	union := int64(a.count+b.count) * int64(qu)
	return union - int64(a.count)*int64(qa) - int64(b.count)*int64(qb)
}

// nearestCell routes a vector unseen during clustering. Cells whose vector
// is a superset of the row's are preferred (placing the row there keeps the
// skipping index exact), choosing the one with the fewest extra bits; if no
// superset exists, the Hamming-nearest cell wins.
func nearestCell(cells []cell, vec []uint64) int {
	bestSuper, bestExtra := -1, math.MaxInt
	bestAny, bestD := 0, math.MaxInt
	for i, c := range cells {
		superset := true
		extra, d := 0, 0
		for w := range vec {
			if vec[w]&^c.vec[w] != 0 {
				superset = false
			}
			extra += bits.OnesCount64(c.vec[w] &^ vec[w])
			d += bits.OnesCount64(c.vec[w] ^ vec[w])
		}
		if superset && extra < bestExtra {
			bestSuper, bestExtra = i, extra
		}
		if d < bestD {
			bestAny, bestD = i, d
		}
	}
	if bestSuper >= 0 {
		return bestSuper
	}
	return bestAny
}

// rowVector fills vec with the query-incidence bits of row r — bit j is set
// iff the row matches queries[j]. vec must hold (len(queries)+63)/64 words.
func rowVector(data *dataset.Dataset, r int, queries []geom.Box, vec []uint64) {
	for w := range vec {
		vec[w] = 0
	}
	for j, q := range queries {
		if data.RowInBox(r, q) {
			vec[j/64] |= 1 << uint(j%64)
		}
	}
}

func vecBytes(vec []uint64) []byte {
	out := make([]byte, len(vec)*8)
	for i, w := range vec {
		for b := 0; b < 8; b++ {
			out[i*8+b] = byte(w >> uint(8*b))
		}
	}
	return out
}

func rowsMBR(data *dataset.Dataset, rows []int) geom.Box {
	dims := data.Dims()
	lo := make(geom.Point, dims)
	hi := make(geom.Point, dims)
	for d := 0; d < dims; d++ {
		lo[d] = math.Inf(1)
		hi[d] = math.Inf(-1)
	}
	for _, r := range rows {
		for d := 0; d < dims; d++ {
			v := data.At(r, d)
			if v < lo[d] {
				lo[d] = v
			}
			if v > hi[d] {
				hi[d] = v
			}
		}
	}
	return geom.Box{Lo: lo, Hi: hi}
}
