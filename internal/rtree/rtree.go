// Package rtree provides the k-MBR extraction the precise-descriptor plugin
// (§V-A) uses — "we adopt the R-tree construction algorithm to extract a given
// number of MBRs from a partition": the Sort-Tile-Recursive (STR) leaf tiling
// of a bulk-loaded R-tree, each tile's MBR one descriptor box — plus
// BoxIndex, the STR-packed R-tree over partition boxes that routes queries.
package rtree

import (
	"math"
	"sort"

	"paw/internal/dataset"
	"paw/internal/geom"
)

// PointSource abstracts the point storage so MBRs can be extracted over
// dataset rows without materialising geom.Points.
type PointSource interface {
	Dims() int
	// Coord returns coordinate dim of item i.
	Coord(i, dim int) float64
}

// DatasetSource adapts dataset rows as a PointSource.
type DatasetSource struct {
	Data *dataset.Dataset
	Rows []int
}

// Dims implements PointSource.
func (s DatasetSource) Dims() int { return s.Data.Dims() }

// Coord implements PointSource.
func (s DatasetSource) Coord(i, dim int) float64 { return s.Data.At(s.Rows[i], dim) }

// strTile recursively partitions idx into tiles of at most cap points, using
// dimension dim at this level.
func strTile(src PointSource, idx []int, cap, dim int) [][]int {
	if len(idx) <= cap {
		return [][]int{idx}
	}
	dims := src.Dims()
	nTiles := (len(idx) + cap - 1) / cap
	// Number of slabs along this dimension: the (dims-dim)-th root of the
	// tile count, so the tiling is balanced across remaining dimensions.
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
	sort.Slice(idx, func(a, b int) bool { return src.Coord(idx[a], dim) < src.Coord(idx[b], dim) })
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
			out = append(out, strTile(src, slab, cap, dim+1)...)
		}
	}
	return out
}

func mbrOf(src PointSource, idx []int) geom.Box {
	dims := src.Dims()
	lo := make(geom.Point, dims)
	hi := make(geom.Point, dims)
	for d := 0; d < dims; d++ {
		lo[d] = math.Inf(1)
		hi[d] = math.Inf(-1)
	}
	for _, i := range idx {
		for d := 0; d < dims; d++ {
			v := src.Coord(i, d)
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

// ExtractMBRs tiles the points into at most k spatially coherent groups and
// returns each group's MBR — the precise descriptor of §V-A. Every point is
// covered by exactly one MBR. k <= 1 returns the single overall MBR.
func ExtractMBRs(src PointSource, n, k int) []geom.Box {
	if n == 0 {
		return nil
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	if k <= 1 {
		return []geom.Box{mbrOf(src, idx)}
	}
	cap := (n + k - 1) / k
	tiles := strTile(src, idx, cap, 0)
	// strTile can produce slightly more tiles than k due to ceiling
	// effects; merge the smallest trailing tiles to respect the budget
	// (the descriptor size is what the master's memory accounting uses).
	for len(tiles) > k {
		last := tiles[len(tiles)-1]
		tiles = tiles[:len(tiles)-1]
		tiles[len(tiles)-1] = append(tiles[len(tiles)-1], last...)
	}
	out := make([]geom.Box, len(tiles))
	for i, tile := range tiles {
		out[i] = mbrOf(src, tile)
	}
	return out
}
