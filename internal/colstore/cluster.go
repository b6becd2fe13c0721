package colstore

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"paw/internal/dataset"
	"paw/internal/geom"
	"paw/internal/parbuild"
)

// Builder encodes the partition tables of one dataset. Both production sites
// that turn a partition's row set into a table — the block store and the
// drift controller's migration payloads — go through a Builder, so a rebuilt
// partition is laid out exactly like a freshly materialised one.
//
// A Builder fixes the physical row order inside a partition (DESIGN.md §11):
//
//  1. Tiles. The rows are split recursively by an n-th-element selection at a
//     multiple of the row-group size, until a segment fits one row group, so
//     consecutive row groups are tight k-d tiles whose min/max envelopes
//     prune. A segment splits on the dimension of widest extent (measured
//     against the layout's domain, so the choice does not depend on column
//     units or on the dataset's extent) — unless the partition has two or
//     more tail columns (step 3) and
//     some of the workload's queries straddle the segment (overlap it
//     without containing it): then it splits on the tail column that the
//     fewest of those queries cross at the cut, ties to the narrowest
//     (leastCrossed), so that a tile stays long along the column its rows
//     ascend on.
//  2. Runs. Inside a tile, rows are sorted lexicographically by the
//     low-cardinality columns (at most runKeyCap distinct values in the
//     partition), fewest distinct values first, so those columns collapse
//     into RLE runs.
//  3. Tail. Rows that tie on every run key are sorted by the tile's tail
//     column: of the columns that are not run keys, the one of widest extent
//     in that tile (measured like step 1; none when they are all constant
//     there). The widest column is the one a group's envelope prunes least,
//     and ascending inside every run tuple it is searched, not swept
//     (column.pieces). A permutation changes no raw chunk's size.
//
// Every step breaks ties on the rows' values (compareRecords), and on source
// row only between rows equal on every column, which encode alike; the cut of
// step 1 is estimated from rows sampled by their values. So the table
// is a pure function of its rows' values, the domain and the workload — not of
// where the rows sit in the dataset, the order they arrive in or which
// goroutine builds: a partition rebuilt from the rows a worker returns is byte
// for byte the one built from the source dataset. A Builder is safe for
// concurrent use.
//
// One bounded pool serves both levels of a build. BuildAll fans the partitions
// out on it, largest first; and because a layout built for skewed data can
// put most of the rows in one partition (69 % of them in one of 23 on the OSM
// stand-in, 51 % in PAW's Multi-Group remainder on tpch-selective), a large
// partition's build fans out again on whatever workers are free: the gather,
// the run-key census with the rank words and a segment's extent pass run in
// record chunks, the two halves of a split tile independently, and tiles sort
// and encode independently. Chunk boundaries depend on the pool's width alone,
// and no chunked pass's result depends on them.
type Builder struct {
	data      *dataset.Dataset
	groupRows int
	pool      *parbuild.Pool
	// invExtent[d] is 1/extent of the domain on d (0 for a constant or
	// non-finite dimension, which is then never split on).
	invExtent []float64
}

// NewBuilder returns a builder for tables of groupRows-row groups over data
// (DefaultGroupRows when groupRows < 1). Extents are measured against domain,
// the box of the layout the partitions belong to (blockstore.Config.Builder),
// so a dataset holding some of its rows builds them as the whole one would.
func NewBuilder(data *dataset.Dataset, domain geom.Box, groupRows int) *Builder {
	if groupRows < 1 {
		groupRows = DefaultGroupRows
	}
	b := &Builder{data: data, groupRows: groupRows, pool: parbuild.New(0), invExtent: make([]float64, data.Dims())}
	for d := range b.invExtent {
		if ext := domain.Hi[d] - domain.Lo[d]; ext > 0 && !math.IsInf(ext, 0) {
			b.invExtent[d] = 1 / ext
		}
	}
	return b
}

// Build encodes the partition holding the given source rows (in any order) as
// a table, tiled for queries (BuildAll), and leaves rows in the table's row
// order.
func (b *Builder) Build(rows []int, queries []geom.Box) *Table {
	var t *Table
	b.BuildAll([][]int{rows}, queries, func(_ int, built *Table) { t = built })
	return t
}

// BuildAll is Build for every partition of parts, concurrently. queries are
// the workload the tiles split for: the layout's QH extended by δ and clipped
// to its root box (layout.ExtendedHist); none keeps every split on the widest
// dimension. done(i, t) is handed parts[i]'s table, with parts[i] already in
// table order, on the goroutine that built it: calls for different
// partitions overlap.
func (b *Builder) BuildAll(parts [][]int, queries []geom.Box, done func(i int, t *Table)) {
	scratch := make([]clusterScratch, b.pool.Slots())
	keyed := keyBoxes(queries, b.data.Dims())
	// Largest first: the largest partition is the critical path, so it starts
	// at once, the rest build beside it, and workers they free join its
	// fan-outs.
	order := make([]int, len(parts))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(x, y int) int { return len(parts[y]) - len(parts[x]) })
	b.pool.Fan(b.pool.RootSlot(), len(parts), func(j, slot int) {
		i := order[j]
		done(i, b.build(parts[i], keyed, scratch, slot))
	})
}

// runKeyCap is the most distinct values a column may hold within a partition
// and still be a key of the intra-tile order. It fixes that order, so every
// store's row order and bytes rest on it.
const runKeyCap = 256

// clusterScratch is the working set of one pool slot, reused by every build
// that slot runs within a BuildAll. All of it but enc and radix belongs to the
// partition the slot is building.
type clusterScratch struct {
	src []int // the partition's source rows, ascending
	// recs holds one record of stride words per row: its position in src
	// (above, once the census has run, the ranks of the row's values on the
	// run-key columns in the low rankBits bits: the word still orders as the
	// position does), then its order-preserving key on every column. Tiling
	// moves whole records, so a segment's rows are contiguous at every level
	// of the recursion and every pass over them is sequential, however large
	// the partition.
	recs []uint64
	// order is the table order: one word per row, sorted within each tile,
	// holding (most significant first) the row's run-key ranks, its position,
	// and — in the low bits — which record of the tile is the row's. A tile
	// with a tail column overwrites everything below the ranks but the record
	// number (sortTile).
	order []uint64
	// census[c][d] is the census of column d over the records of chunk c;
	// keys[d] the partition's distinct keys of one column, merged from them.
	census [][]columnCensus
	keys   []runKey
	// tails lists the columns that are not run keys, ascending; rankBits is
	// how many bits the run-key ranks take, of a record's first word and at
	// the top of an order word.
	tails    []int
	rankBits int
	// enc encodes, and radix backs the word sort of, the tiles this slot is
	// handed — its own partition's, or those of a large partition another
	// slot is building.
	enc   groupEncoder
	radix []uint64
}

// columnCensus is the distinct-value census of one column over a run of
// records, abandoned once it passes runKeyCap.
type columnCensus struct {
	vals  []uint64 // distinct keys, in the order first seen
	first []uint8  // first[r]: the first-seen number of the r-th smallest key
	codes []uint8  // per record: the first-seen number of its key
}

// build puts rows in table order and encodes them as a table. The caller
// holds pool slot slot.
func (b *Builder) build(rows []int, queries []keyBox, scratch []clusterScratch, slot int) *Table {
	n, dims := len(rows), b.data.Dims()
	t := &Table{names: append([]string(nil), b.data.Names()...), rows: n}
	if n == 0 {
		return t
	}
	sc := &scratch[slot]
	// Positions in ascending source order, so that breaking ties on position
	// breaks them on source row index.
	sc.src = append(sc.src[:0], rows...)
	if !slices.IsSorted(sc.src) {
		slices.Sort(sc.src)
	}
	stride := dims + 1
	b.gather(sc, stride, slot)
	slotBits := b.census(sc, n, stride, slot)
	// The workload chooses among tail columns only, and only where there are
	// two or more: a run key's rows collapse into runs and its few values
	// leave a cut little room to miss a query, and one tail leaves no choice.
	var tails []int
	if len(sc.tails) >= 2 && len(queries) > 0 {
		tails = sc.tails
	}
	b.tile(sc.recs, stride, slot, tails, queries)

	// Tiles are independent from here: make the tile's order words, sort
	// them, write its rows out, encode its row group.
	rankBits := uint(sc.rankBits)
	rankMask, slotMask := uint64(1)<<rankBits-1, uint64(1)<<slotBits-1
	sc.order = slices.Grow(sc.order[:0], n)[:n]
	t.groups = make([]rowGroup, (n+b.groupRows-1)/b.groupRows)
	b.pool.FanChunks(slot, len(t.groups), parallelMinGroups, func(_, glo, ghi, slot int) {
		enc, radix := &scratch[slot].enc, &scratch[slot].radix
		for g := glo; g < ghi; g++ {
			lo := g * b.groupRows
			tile := sc.order[lo:min(lo+b.groupRows, n)]
			recs := sc.recs[lo*stride : (lo+len(tile))*stride]
			for i := range tile {
				w := recs[i*stride]
				tile[i] = (w&rankMask)<<(64-rankBits) | w>>rankBits<<slotBits | uint64(i)
			}
			b.sortTile(sc, tile, recs, stride, slotBits, radix)
			for i, k := range tile {
				rows[lo+i] = sc.src[recs[int(k&slotMask)*stride]>>rankBits]
			}
			t.groups[g] = enc.encode(dims, len(tile), func(d int, dst []float64) {
				for i, k := range tile {
					dst[i] = keyValue(recs[int(k&slotMask)*stride+1+d])
				}
			})
		}
	})
	return t
}

// parallelMinRows is the fewest records in a chunk of a pass over a
// partition's records that fans out — the gather, the census and the rank
// words, and a tile segment's extent: a chunk below it takes well under a
// millisecond.
const parallelMinRows = 1 << 14

// gather is the one read of the dataset: it fills sc.recs with the record of
// every row of sc.src, each in one pass over the row, in row chunks on the
// pool. Everything after it, encoding included, reads the records.
func (b *Builder) gather(sc *clusterScratch, stride, slot int) {
	n := len(sc.src)
	cols := make([][]float64, stride-1)
	for d := range cols {
		cols[d] = b.data.Column(d)
	}
	sc.recs = slices.Grow(sc.recs[:0], n*stride)[:n*stride]
	b.pool.FanChunks(slot, n, parallelMinRows, func(_, lo, hi, _ int) {
		for i, r := range sc.src[lo:hi] {
			rec := sc.recs[(lo+i)*stride : (lo+i+1)*stride]
			rec[0] = uint64(lo + i)
			for d, col := range cols {
				rec[1+d] = orderKey(col[r])
			}
		}
	})
}

// sortTile puts the order words of one tile — tile[i] still names record i of
// recs, the tile's records — in table order: run-key ranks, then the tail
// column's key, then the rest of compareRecords' order. The
// tail is the column of sc.tails that is widest in this tile; its key goes
// into the word below the ranks, as many high bits as fit above the record
// number, so one sort of plain words does nearly all of it: rows whose words
// agree above the record number (equal values, or keys that differ only in
// the bits cut off) are then put right by comparing their records. Without a
// tail the word holds the ranks alone. Either way the record numbers ascend,
// so a radix sort above them is a full sort; buf is its scratch.
func (b *Builder) sortTile(sc *clusterScratch, tile, recs []uint64, stride, slotBits int, buf *[]uint64) {
	tail, widest := -1, 0.0
	for _, d := range sc.tails {
		// Extent as the group statistics will see it: NaNs aside.
		mn, mx := math.Inf(1), math.Inf(-1)
		for w := 1 + d; w < len(recs); w += stride {
			v := keyValue(recs[w])
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		if w := (mx - mn) * b.invExtent[d]; w > widest {
			tail, widest = d, w
		}
	}
	rankShift, first := uint(64-sc.rankBits), 0
	for i, k := range tile {
		w := k >> rankShift << rankShift
		if tail >= 0 {
			first = 1 + tail
			w |= recs[i*stride+first] >> uint(sc.rankBits+slotBits) << uint(slotBits)
		}
		tile[i] = w | uint64(i)
	}
	radixSortAbove(tile, slotBits, buf)
	slotMask := uint64(1)<<slotBits - 1
	byRecord := func(x, y uint64) int {
		return compareRecords(recs[int(x&slotMask)*stride:int(x&slotMask+1)*stride], recs[int(y&slotMask)*stride:int(y&slotMask+1)*stride], first)
	}
	for i, j := 0, 1; j <= len(tile); j++ {
		if j < len(tile) && tile[j]>>uint(slotBits) == tile[i]>>uint(slotBits) {
			continue
		}
		if j-i > 1 {
			slices.SortFunc(tile[i:j], byRecord)
		}
		i = j
	}
}

// radixSortAbove sorts words whose low skip bits already ascend (they are
// distinct and in that order): a stable LSD radix sort, one byte a pass, over
// only the bits above skip that differ between the words. Stability makes the
// low bits the last tie-break, so the result is the plain ascending sort. buf
// is scratch of any length.
func radixSortAbove(words []uint64, skip int, buf *[]uint64) {
	or, and := uint64(0), ^uint64(0)
	for _, w := range words {
		or |= w
		and &= w
	}
	vary := (or ^ and) >> uint(skip) << uint(skip)
	if vary == 0 {
		return
	}
	lo, hi := bits.TrailingZeros64(vary), 64-bits.LeadingZeros64(vary)
	passes := (hi - lo + 7) / 8
	// Every pass's histogram from one read of the words.
	var counts [8][256]uint32
	for _, w := range words {
		w >>= uint(lo)
		for p := range passes {
			counts[p][byte(w>>uint(8*p))]++
		}
	}
	*buf = slices.Grow((*buf)[:0], len(words))[:len(words)]
	src, dst := words, *buf
	for p := range passes {
		shift := uint(lo + 8*p)
		if byte(vary>>shift) == 0 {
			continue // no word differs in this byte
		}
		at, next := &counts[p], uint32(0)
		for d, c := range at {
			at[d], next = next, next+c
		}
		for _, w := range src {
			d := byte(w >> shift)
			dst[at[d]] = w
			at[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &words[0] {
		copy(words, src)
	}
}

// orderKey maps a float64 to a uint64 whose unsigned order is the float
// order (and a total order over NaNs and signed zeros, which float
// comparison is not).
func orderKey(v float64) uint64 {
	k := math.Float64bits(v)
	if k>>63 != 0 {
		return ^k
	}
	return k | 1<<63
}

// keyValue inverts orderKey.
func keyValue(k uint64) float64 {
	if k>>63 != 0 {
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}

// parallelTileGroups is the smallest segment, in row groups, whose two halves
// tile concurrently; below it a half is done in well under a millisecond.
const parallelTileGroups = 16

// tile arranges the records so that every aligned run of groupRows of them is
// one k-d tile: it splits the segment at a multiple of groupRows and recurses
// until a segment fits one row group. A segment splits on the widest
// dimension, or — given tails, the partition's tail columns when it has two
// or more and the build a workload — on the tail column leastCrossed picks
// for the queries that straddle it, if any do. The caller holds pool slot
// slot.
func (b *Builder) tile(recs []uint64, stride, slot int, tails []int, queries []keyBox) {
	dims := stride - 1
	// extents holds one chunk's mins, then maxes, per chunk of the extent
	// pass; the first chunk's end up the segment's.
	extents := make([]uint64, 2*dims*b.pool.Workers())
	mins, maxs := extents[:dims], extents[dims:2*dims]
	for len(recs) > b.groupRows*stride {
		chunks := b.pool.FanChunks(slot, len(recs)/stride, parallelMinRows, func(c, lo, hi, _ int) {
			extentOf(recs[lo*stride:hi*stride], stride, extents[2*dims*c:2*dims*(c+1)])
		})
		for c := 1; c < chunks; c++ {
			at := extents[2*dims*c:]
			for d := range dims {
				mins[d], maxs[d] = min(mins[d], at[d]), max(maxs[d], at[dims+d])
			}
		}
		groups := (len(recs)/stride + b.groupRows - 1) / b.groupRows
		k := groups / 2 * b.groupRows
		split := -1
		if tails != nil {
			queries = straddling(queries, mins, maxs)
			split = b.leastCrossed(recs, stride, k, tails, queries, mins, maxs)
		}
		if split < 0 {
			widest := -1.0
			for d, inv := range b.invExtent {
				if w := (keyValue(maxs[d]) - keyValue(mins[d])) * inv; w > widest {
					split, widest = d, w
				}
			}
		}
		selectSmallest(recs, stride, 1+split, k)
		left, right := recs[:k*stride], recs[k*stride:]
		if groups >= parallelTileGroups {
			b.pool.Fan(slot, 2, func(half, slot int) {
				if half == 0 {
					b.tile(left, stride, slot, tails, queries)
				} else {
					b.tile(right, stride, slot, tails, queries)
				}
			})
			return
		}
		b.tile(left, stride, slot, tails, queries)
		recs = right
	}
}

// A keyBox is a query box in key space: the orderKey of each lower bound,
// then of each upper bound.
type keyBox []uint64

// keyBoxes maps queries of dims dimensions to key space.
func keyBoxes(queries []geom.Box, dims int) []keyBox {
	out := make([]keyBox, len(queries))
	for i, q := range queries {
		out[i] = make(keyBox, 2*dims)
		for d := range dims {
			out[i][d], out[i][dims+d] = orderKey(q.Lo[d]), orderKey(q.Hi[d])
		}
	}
	return out
}

// straddling returns, in a new slice, the queries that overlap the box of
// mins and maxs without containing it: the queries a split of a segment with
// that extent can serve better or worse. A query that contains the segment
// reads both halves whatever the cut, one disjoint from it neither; neither
// can straddle any part of the segment either, so a segment's halves filter
// what it kept.
func straddling(queries []keyBox, mins, maxs []uint64) []keyBox {
	var out []keyBox
	for _, q := range queries {
		overlaps, contains := true, true
		for d := range mins {
			lo, hi := q[d], q[len(mins)+d]
			overlaps = overlaps && lo <= maxs[d] && hi >= mins[d]
			contains = contains && lo <= mins[d] && hi >= maxs[d]
		}
		if overlaps && !contains {
			out = append(out, q)
		}
	}
	return out
}

// leastCrossed returns the tail column that the fewest queries cross at the
// segment's cut — the key of rank k on that column, estimated from the
// records sampleByValue picks; a query crosses a cut it reaches on both sides
// of. Ties go to the narrowest tail (then the first): a
// tile's rows ascend on its widest tail column (sortTile), so splitting the
// narrower keeps tiles long along the column a query then searches to a short
// span instead of sweeping. It returns -1, the widest rule's turn, when no
// query is left to weigh or every tail is constant over the segment (mins,
// maxs).
func (b *Builder) leastCrossed(recs []uint64, stride, k int, tails []int, queries []keyBox, mins, maxs []uint64) int {
	if len(queries) == 0 {
		return -1
	}
	dims, n := stride-1, len(recs)/stride
	var at [maxPivotSample]int32
	var sample [maxPivotSample]uint64
	picked := sampleByValue(recs, stride, &at)
	keys := sample[:len(picked)]
	best, fewest, narrowest := -1, 0, 0.0
	for _, d := range tails {
		w := (keyValue(maxs[d]) - keyValue(mins[d])) * b.invExtent[d]
		if !(w > 0) {
			continue
		}
		for i, r := range picked {
			keys[i] = recs[int(r)*stride+1+d]
		}
		slices.Sort(keys)
		cut, crossed := keys[k*len(keys)/n], 0
		for _, q := range queries {
			if q[d] <= cut && cut <= q[dims+d] {
				crossed++
			}
		}
		if best < 0 || crossed < fewest || crossed == fewest && w < narrowest {
			best, fewest, narrowest = d, crossed, w
		}
	}
	return best
}

// minCutSample is the fewest records sampleByValue aims to pick: √n of them
// would put a 2 035-row segment's cut a tenth of its range off.
const minCutSample = 256

// sampleByValue returns the positions, ascending, of the stride-word records
// of recs whose recordHash is at most a bound: all of them when there are at
// most minCutSample, else a bound that keeps about 2·minCutSample, raised
// while fewer than minCutSample pass and halved, for good, while
// maxPivotSample would not hold them. The sample depends on the records'
// values alone, not on where they sit. at is its backing array.
func sampleByValue(recs []uint64, stride int, at *[maxPivotSample]int32) []int32 {
	n, bound, halved := len(recs)/stride, uint64(math.MaxUint64), false
	if n > minCutSample {
		bound = uint64(math.Ldexp(2*minCutSample/float64(n), 64))
	}
	for {
		picked := at[:0]
		for i := 0; i < n && len(picked) < maxPivotSample; i++ {
			if recordHash(recs[i*stride+1:(i+1)*stride]) <= bound {
				picked = append(picked, int32(i))
			}
		}
		switch {
		case len(picked) == maxPivotSample:
			bound, halved = bound/2, true
		case len(picked) < min(n, minCutSample) && !halved:
			bound |= bound<<1 | 1
		default:
			return picked
		}
	}
}

// recordHash is a 64-bit hash of a record's keys.
func recordHash(keys []uint64) uint64 {
	h := uint64(len(keys))
	for _, k := range keys {
		h = bits.RotateLeft64((h^k)*0x9E3779B97F4A7C15, 29)
	}
	h = (h ^ h>>32) * 0xD6E8FEB86659FD93
	return h ^ h>>32
}

// extentOf sets minmax to the least, then the greatest, key of every column
// over the stride-word records of recs (at least one). A pass reads a window
// of four words of each record, their bounds held in registers: columns
// d0…d0+3, and past the last column words of the next record, whose bounds
// are dropped. The last records, whose window would pass the end, are read
// column by column.
func extentOf(recs []uint64, stride int, minmax []uint64) {
	dims := stride - 1
	for d0 := 0; d0 < dims; d0 += 4 {
		l0, l1, l2, l3 := uint64(math.MaxUint64), uint64(math.MaxUint64), uint64(math.MaxUint64), uint64(math.MaxUint64)
		var h0, h1, h2, h3 uint64
		w := 1 + d0
		for ; w+4 <= len(recs); w += stride {
			rec := recs[w : w+4 : w+4]
			k0, k1, k2, k3 := rec[0], rec[1], rec[2], rec[3]
			l0, h0 = min(l0, k0), max(h0, k0)
			l1, h1 = min(l1, k1), max(h1, k1)
			l2, h2 = min(l2, k2), max(h2, k2)
			l3, h3 = min(l3, k3), max(h3, k3)
		}
		cols := min(4, dims-d0)
		bounds := [8]uint64{l0, l1, l2, l3, h0, h1, h2, h3}
		for ; w < len(recs); w += stride {
			for j, k := range recs[w : w+cols] {
				bounds[j], bounds[4+j] = min(bounds[j], k), max(bounds[4+j], k)
			}
		}
		for j := range cols {
			minmax[d0+j], minmax[dims+d0+j] = bounds[j], bounds[4+j]
		}
	}
}

// maxPivotSample caps the sample selectSmallest draws its pivot from.
const maxPivotSample = 1024

// selectSmallest permutes the stride-word records of recs so that the first k
// are the k smallest under compareRecords(·, ·, keyWord), in O(len(recs))
// expected time. record[0] is unique, so the order is total.
func selectSmallest(recs []uint64, stride, keyWord, k int) {
	// Invariant: records [0,lo) sort before [lo,n), [0,hi) before [hi,n),
	// and lo <= k <= hi.
	lo, hi := 0, len(recs)/stride
	// Quickselect around a pivot drawn from a sample of about √(hi-lo)
	// records at pseudo-random (but deterministic) places, so that no natural
	// arrival pattern — sorted, reversed, rising then falling — degrades it.
	// The pivot is the sample's record of rank nearest k, moved about one
	// standard deviation of a sample rank toward the far end of the range: k
	// then mostly falls on the near side of it, and the next step partitions
	// that side alone. A segment is read about 1.7 times: once whole, once
	// more for the half holding k, and a few short ranges after. Should a
	// crafted input exhaust the budget anyway, the remaining range is simply
	// sorted.
	type pick struct {
		key uint64 // the record's key
		at  int    // where it is
	}
	var sample [maxPivotSample]pick
	rnd := uint64(hi)*0x9E3779B97F4A7C15 | 1
	for budget := 4 * bits.Len(uint(hi)); lo < k && k < hi && hi-lo > 12 && budget > 0; budget-- {
		n := hi - lo
		size := min(maxPivotSample, int(math.Sqrt(float64(n))))
		picks := sample[:size]
		for t := range picks {
			rnd ^= rnd << 13
			rnd ^= rnd >> 7
			rnd ^= rnd << 17
			at := lo + int(rnd%uint64(n))
			picks[t].key, picks[t].at = recs[at*stride+keyWord], at
		}
		slices.SortFunc(picks, func(x, y pick) int {
			if c := cmp.Compare(x.key, y.key); c != 0 {
				return c
			}
			return compareRecords(recs[x.at*stride:(x.at+1)*stride], recs[y.at*stride:(y.at+1)*stride], keyWord)
		})
		rank, gap := float64(k-lo)*float64(size)/float64(n), math.Sqrt(float64(size))/2
		if k-lo < hi-k {
			rank += gap
		} else {
			rank -= gap
		}
		swapRecords(recs, stride, lo, picks[min(max(int(rank), 0), size-1)].at)
		m := lo + partitionAround(recs[lo*stride:hi*stride], stride, keyWord)
		if k <= m {
			hi = m
		} else {
			lo = m + 1
		}
	}
	if lo < k && k < hi {
		sortRecords(recs[lo*stride:hi*stride], stride, keyWord)
	}
}

// blockLen is how many records one step of partitionAround classifies before
// it moves any; an offset within a block fits a uint8.
const blockLen = 64

// partitionAround partitions the stride-word records of seg around its first
// record, the pivot, and returns where the pivot ends: the records before it
// sort before it (compareRecords), those after it after. It is a block
// partition (BlockQuicksort, Edelkamp & Weiß 2016): a block of blockLen records
// at each end is classified without a branch into the offsets of its
// misplaced records, and those are then swapped in pairs, so no branch of the
// block loop depends on how a record compares — but for a tie on the key.
func partitionAround(seg []uint64, stride, keyWord int) int {
	pk, ph := seg[keyWord], recordHash(seg[1:stride])
	below := func(i int) int { // 1 when record i sorts before the pivot
		k := seg[i*stride+keyWord]
		if k == pk { // rare unless the key has few values
			return int(borrowOf(seg[i*stride:(i+1)*stride], seg[:stride], ph))
		}
		_, borrow := bits.Sub64(k, pk, 0)
		return int(borrow)
	}
	// Records [1,l) sort before the pivot, [r,n) after; the unsettled
	// offsets of the blocks at l and at r-blockLen are offL[startL:startL+numL]
	// and offR[startR:startR+numR], counted from l up and from r-1 down.
	l, r := 1, len(seg)/stride
	var offL, offR [blockLen]uint8
	startL, numL, startR, numR := 0, 0, 0, 0
	for r-l > 2*blockLen {
		if numL == 0 {
			startL = 0
			for i := range blockLen {
				offL[numL] = uint8(i)
				numL += 1 - below(l+i)
			}
		}
		if numR == 0 {
			startR = 0
			for i := range blockLen {
				offR[numR] = uint8(i)
				numR += below(r - 1 - i)
			}
		}
		num := min(numL, numR)
		for j := range num {
			swapRecords(seg, stride, l+int(offL[startL+j]), r-1-int(offR[startR+j]))
		}
		startL, numL, startR, numR = startL+num, numL-num, startR+num, numR-num
		if numL == 0 {
			l += blockLen
		}
		if numR == 0 {
			r -= blockLen
		}
	}
	// At most two blocks are left, one perhaps half settled: a Lomuto pass
	// over them finishes.
	for i := l; i < r; i++ {
		if below(i) == 1 {
			swapRecords(seg, stride, i, l)
			l++
		}
	}
	swapRecords(seg, stride, 0, l-1)
	return l - 1
}

// borrowOf is 1 when record a sorts before record b, which holds the same key
// as a and hashes to hb, under compareRecords: a minus b as one multi-word
// number of (hash, keys, word 0), least significant word first, borrows.
func borrowOf(a, b []uint64, hb uint64) uint64 {
	_, borrow := bits.Sub64(a[0], b[0], 0)
	for w := len(a) - 1; w > 0; w-- {
		_, borrow = bits.Sub64(a[w], b[w], borrow)
	}
	_, borrow = bits.Sub64(recordHash(a[1:]), hb, borrow)
	return borrow
}

// compareRecords is the builder's order of two records: by word first (none
// when first is 0), then by recordHash of their keys, so that ties fall in no
// pattern of the values, then by the keys, then by word 0, whose position
// ascends with the source row — only rows equal on every column, which encode
// alike, are told apart by where they came from.
func compareRecords(a, b []uint64, first int) int {
	if c := cmp.Compare(a[first], b[first]); first > 0 && c != 0 {
		return c
	}
	if c := cmp.Compare(recordHash(a[1:]), recordHash(b[1:])); c != 0 {
		return c
	}
	if c := slices.Compare(a[1:], b[1:]); c != 0 {
		return c
	}
	return cmp.Compare(a[0], b[0])
}

func swapRecords(recs []uint64, stride, i, j int) {
	a, b := recs[i*stride:(i+1)*stride], recs[j*stride:(j+1)*stride]
	for w := range a {
		a[w], b[w] = b[w], a[w]
	}
}

// sortRecords sorts the stride-word records of recs by compareRecords(·, ·,
// keyWord): an index sort, then one pass moving the records into place.
func sortRecords(recs []uint64, stride, keyWord int) {
	idx := make([]int, len(recs)/stride)
	for i := range idx {
		idx[i] = i
	}
	from := slices.Clone(recs)
	slices.SortFunc(idx, func(a, b int) int {
		return compareRecords(from[a*stride:(a+1)*stride], from[b*stride:(b+1)*stride], keyWord)
	})
	for to, i := range idx {
		copy(recs[to*stride:(to+1)*stride], from[i*stride:(i+1)*stride])
	}
}

// census counts every column's distinct keys over the partition's records
// and ranks the run-key columns — those with at most runKeyCap distinct
// values in the partition, most significant first in ascending order of
// distinct count (ties in column order) — into the records' first words:
// each record's position moves up by sc.rankBits and its ranks fill the bits
// below, so the word orders records as the position does, and a tile's order
// words are read off its records after tiling (build). The ranks share an
// order word with the position and, in its low slotBits bits (returned), the
// row's record number in its tile; a column whose rank bits no longer fit is
// left out, with every column after it: those are sc.tails, the candidates
// for a tile's tail key and for a workload-chosen split. It runs before the
// tiling, which needs sc.tails.
//
// The census runs in record chunks on the pool, each chunk counting every
// column's keys apart; the chunks' keys merge into the partition's distinct
// set, and each record's code maps to its key's rank through its chunk's
// table. Only the ranks reach the words, so they do not depend on the chunks.
// The caller holds pool slot slot.
func (b *Builder) census(sc *clusterScratch, n, stride, slot int) (slotBits int) {
	dims, groupRows := stride-1, b.groupRows
	if sc.census == nil {
		sc.census, sc.keys = make([][]columnCensus, b.pool.Workers()), make([]runKey, dims)
		for c := range sc.census {
			sc.census[c] = make([]columnCensus, dims)
		}
	}
	chunks := b.pool.FanChunks(slot, n, parallelMinRows, func(c, lo, hi, _ int) {
		for d := range dims {
			sc.census[c][d].take(sc.recs[lo*stride:hi*stride], stride, 1+d)
		}
	})
	keys := sc.keys
	for d := range keys {
		keys[d].merge(d, sc.census[:chunks])
	}
	slices.SortStableFunc(keys, func(a, b runKey) int { return a.distinct - b.distinct })

	// Positions take bits.Len(n) bits, tile slots as many as the largest
	// tile needs; what is left of the word is for ranks.
	posBits := bits.Len(uint(n))
	slotBits = bits.Len(uint(min(groupRows, n) - 1))
	free := 64 - posBits - slotBits
	sc.tails = sc.tails[:0]
	var ranked []runKey // the run keys that take bits, most significant first
	for i, k := range keys {
		width := bits.Len(uint(k.distinct - 1))
		if k.distinct > runKeyCap || width > free {
			for _, k := range keys[i:] {
				sc.tails = append(sc.tails, k.dim)
			}
			slices.Sort(sc.tails)
			break
		}
		if width == 0 {
			continue // constant column
		}
		free -= width
		k.shift = uint(free) // above the bits the later keys take
		ranked = append(ranked, k)
	}
	sc.rankBits = 64 - posBits - slotBits - free
	for i := range ranked {
		ranked[i].shift -= uint(free)
	}

	rankBits := uint(sc.rankBits)
	b.pool.FanChunks(slot, n, parallelMinRows, func(c, lo, hi, _ int) {
		recs := sc.recs[lo*stride : hi*stride]
		for w := 0; w < len(recs); w += stride {
			recs[w] <<= rankBits
		}
		for _, k := range ranked {
			// rank[f] is the shifted rank of the chunk's f-th key first seen.
			cc := &sc.census[c][k.dim]
			var rank [runKeyCap]uint64
			for f, v := range cc.vals {
				r, _ := slices.BinarySearch(k.vals, v)
				rank[f] = uint64(r) << k.shift
			}
			for i, f := range cc.codes {
				recs[i*stride] |= rank[f]
			}
		}
	})
	return slotBits
}

// runKey is one column's census over a whole partition.
type runKey struct {
	dim int
	// distinct counts the column's distinct keys, but stops at runKeyCap+1;
	// vals holds them, ascending, when it is at most runKeyCap.
	distinct int
	vals     []uint64
	// shift places the column's ranks in a record's first word (census).
	shift uint
}

// merge sets k to column dim's census over the chunk censuses of the
// partition's records.
func (k *runKey) merge(dim int, census [][]columnCensus) {
	k.dim, k.vals = dim, k.vals[:0]
	for _, chunk := range census {
		cc := &chunk[dim]
		if len(cc.vals) > runKeyCap {
			k.distinct = runKeyCap + 1
			return
		}
		for _, f := range cc.first {
			k.vals = append(k.vals, cc.vals[f])
		}
	}
	if len(census) > 1 {
		slices.Sort(k.vals)
		k.vals = slices.Compact(k.vals)
	}
	k.distinct = min(len(k.vals), runKeyCap+1)
}

// censusBits sizes take's open-addressing table at 512 slots, twice the
// runKeyCap+1 keys it ever holds, so that probes stay short.
const censusBits = 9

// censusSlot is the home slot of key k in take's table (Fibonacci hashing:
// the top bits of the product depend on every bit of k).
func censusSlot(k uint64) uint64 { return k * 0x9E3779B97F4A7C15 >> (64 - censusBits) }

// take counts the distinct values of one column (word keyWord of every
// record) and records each record's value by first-seen number. It stops at
// the first value past runKeyCap, leaving len(c.vals) == runKeyCap+1.
func (c *columnCensus) take(recs []uint64, stride, keyWord int) {
	c.vals = c.vals[:0]
	n := len(recs) / stride
	c.codes = slices.Grow(c.codes[:0], n)[:n]
	var keys [1 << censusBits]uint64
	var codes [1 << censusBits]uint16 // first-seen number + 1; 0 is a free slot
	last, code := ^recs[keyWord], uint8(0)
	for i := range c.codes {
		// A record repeating the one before it skips the lookup.
		if k := recs[i*stride+keyWord]; k != last {
			h := censusSlot(k)
			for codes[h] != 0 && keys[h] != k {
				h = (h + 1) & (1<<censusBits - 1)
			}
			if codes[h] == 0 {
				if c.vals = append(c.vals, k); len(c.vals) > runKeyCap {
					return
				}
				keys[h], codes[h] = k, uint16(len(c.vals))
			}
			last, code = k, uint8(codes[h]-1)
		}
		c.codes[i] = code
	}
	c.first = slices.Grow(c.first[:0], len(c.vals))[:len(c.vals)]
	for f := range c.first {
		c.first[f] = uint8(f)
	}
	slices.SortFunc(c.first, func(a, b uint8) int { return cmp.Compare(c.vals[a], c.vals[b]) })
}
