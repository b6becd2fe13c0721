package colstore

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"paw/internal/dataset"
	"paw/internal/parbuild"
)

// Builder encodes the partition tables of one dataset. Every production site
// that turns a partition's row set into a table — the block store, the
// master's re-encode fallback, the drift controller's migration payloads —
// goes through a Builder, so a migrated or rebuilt partition is laid out
// exactly like a freshly materialised one.
//
// A Builder fixes the physical row order inside a partition (DESIGN.md §11):
//
//  1. Tiles. The rows are split recursively on the dimension of widest
//     extent (measured against the dataset's domain, so the choice does not
//     depend on column units) by an n-th-element selection at a multiple of
//     the row-group size, until a segment fits one row group. Consecutive
//     row groups are therefore tight k-d tiles, and their min/max envelopes
//     prune.
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
// Every step compares (value, source row index) pairs, which is a total order:
// the result is a pure function of the row set, independent of the order the
// rows arrive in and of which goroutine runs the build. A Builder is safe for
// concurrent use.
//
// One bounded pool serves both levels of a build. BuildAll fans the partitions
// out on it; and because a layout built for skewed data can put most of the
// rows in one partition (69 % of them in one of 23, on the OSM stand-in), a
// large partition's build fans out again on whatever workers are free: the two
// halves of a split tile independently, and tiles sort and encode
// independently.
type Builder struct {
	data      *dataset.Dataset
	groupRows int
	pool      *parbuild.Pool
	// invExtent[d] is 1/extent of the dataset's domain on d (0 for a
	// constant or non-finite dimension, which is then never split on).
	invExtent []float64
}

// NewBuilder returns a builder for tables of groupRows-row groups over data
// (DefaultGroupRows when groupRows < 1).
func NewBuilder(data *dataset.Dataset, groupRows int) *Builder {
	if groupRows < 1 {
		groupRows = DefaultGroupRows
	}
	b := &Builder{data: data, groupRows: groupRows, pool: parbuild.New(0), invExtent: make([]float64, data.Dims())}
	dom := data.Domain()
	for d := range b.invExtent {
		if ext := dom.Hi[d] - dom.Lo[d]; ext > 0 && !math.IsInf(ext, 0) {
			b.invExtent[d] = 1 / ext
		}
	}
	return b
}

// Build encodes the partition holding the given source rows (in any order) as
// a table, and leaves rows in the table's row order.
func (b *Builder) Build(rows []int) *Table {
	var t *Table
	b.BuildAll([][]int{rows}, func(_ int, built *Table) { t = built })
	return t
}

// BuildAll is Build for every partition of parts, concurrently. done(i, t) is
// handed parts[i]'s table, with parts[i] already in table order, on the
// goroutine that built it: calls for different partitions overlap.
func (b *Builder) BuildAll(parts [][]int, done func(i int, t *Table)) {
	scratch := make([]clusterScratch, b.pool.Slots())
	b.pool.Fan(b.pool.RootSlot(), len(parts), func(i, slot int) {
		done(i, b.build(parts[i], scratch, slot))
	})
}

// runKeyCap is the most distinct values a column may hold within a partition
// and still be a key of the intra-tile order: the widest dictionary a one-byte
// code addresses. Ordering on a column past it would lengthen no run and
// change no chunk's encoded size.
const runKeyCap = 256

// clusterScratch is the working set of one pool slot, reused by every build
// that slot runs within a BuildAll. All of it but enc belongs to the partition
// the slot is building.
type clusterScratch struct {
	src []int // the partition's source rows, ascending
	// recs holds one record of stride words per row: its position in src,
	// then its order-preserving key on every column. Tiling moves whole
	// records, so a segment's rows are contiguous at every level of the
	// recursion and every pass over them is sequential, however large the
	// partition.
	recs []uint64
	// order is the table order: one word per row, sorted within each tile,
	// holding (most significant first) the ranks of the row's values on the
	// run-key columns, its position, and — in the low bits — which record of
	// the tile is the row's. A tile with a tail column overwrites everything
	// below the ranks but the record number (sortTile).
	order  []uint64
	census []columnCensus
	// tails lists the columns that are not run keys, ascending; rankBits is
	// how many high bits of an order word the run-key ranks take.
	tails    []int
	rankBits int
	// enc encodes the tiles this slot is handed — its own partition's, or
	// those of a large partition another slot is building.
	enc groupEncoder
}

// columnCensus is the distinct-value census of one column of a partition,
// abandoned once it passes runKeyCap.
type columnCensus struct {
	dim   int      // the column
	vals  []uint64 // distinct keys, ascending
	first []uint8  // first[i]: how many distinct keys had been seen before vals[i]
	codes []uint8  // per record: the first-seen number of its key
}

// build puts rows in table order and encodes them as a table. The caller
// holds pool slot slot.
func (b *Builder) build(rows []int, scratch []clusterScratch, slot int) *Table {
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
	// The one gather from the dataset; everything after it, encoding
	// included, reads the records.
	stride := dims + 1
	sc.recs = slices.Grow(sc.recs[:0], n*stride)[:n*stride]
	for i := range sc.src {
		sc.recs[i*stride] = uint64(i)
	}
	for d := 0; d < dims; d++ {
		col := b.data.Column(d)
		for i, r := range sc.src {
			sc.recs[i*stride+1+d] = orderKey(col[r])
		}
	}

	b.tile(sc.recs, stride, slot)
	slotBits := sc.packOrder(n, stride, b.groupRows)
	slotMask := uint64(1)<<slotBits - 1

	// Tiles are independent from here: sort the tile's order words, write its
	// rows out, encode its row group.
	t.groups = make([]rowGroup, (n+b.groupRows-1)/b.groupRows)
	b.pool.FanChunks(slot, len(t.groups), parallelMinGroups, func(_, glo, ghi, slot int) {
		enc := &scratch[slot].enc
		for g := glo; g < ghi; g++ {
			lo := g * b.groupRows
			tile := sc.order[lo:min(lo+b.groupRows, n)]
			recs := sc.recs[lo*stride : (lo+len(tile))*stride]
			b.sortTile(sc, tile, recs, stride, slotBits)
			for i, k := range tile {
				rows[lo+i] = sc.src[recs[int(k&slotMask)*stride]]
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

// sortTile puts the order words of one tile — tile[i] still names record i of
// recs, the tile's records — in table order: run-key ranks, then the tail
// column's key, then position. The tail is the column of sc.tails that is
// widest in this tile; its key goes into the word below the ranks, as many high bits
// as fit above the record number, so one sort of plain words does nearly all
// of it: rows whose words agree above the record number (equal values, or keys
// that differ only in the bits cut off) are then put right by comparing their
// records. Without a tail the words already hold (ranks, position).
func (b *Builder) sortTile(sc *clusterScratch, tile, recs []uint64, stride, slotBits int) {
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
	if tail < 0 {
		slices.Sort(tile)
		return
	}
	rankShift := uint(64 - sc.rankBits)
	for i, k := range tile {
		tile[i] = k>>rankShift<<rankShift | recs[i*stride+1+tail]>>uint(sc.rankBits+slotBits)<<uint(slotBits) | uint64(i)
	}
	slices.Sort(tile)
	slotMask := uint64(1)<<slotBits - 1
	byRecord := func(x, y uint64) int {
		rx, ry := recs[int(x&slotMask)*stride:], recs[int(y&slotMask)*stride:]
		if c := cmp.Compare(rx[1+tail], ry[1+tail]); c != 0 {
			return c
		}
		return cmp.Compare(rx[0], ry[0])
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
// one k-d tile: it splits the segment at a multiple of groupRows on the widest
// dimension and recurses until a segment fits one row group. The caller holds
// pool slot slot.
func (b *Builder) tile(recs []uint64, stride, slot int) {
	dims := stride - 1
	extent := make([]uint64, 2*dims)
	mins, maxs := extent[:dims], extent[dims:]
	for len(recs) > b.groupRows*stride {
		copy(mins, recs[1:stride])
		copy(maxs, recs[1:stride])
		for w := stride; w < len(recs); w += stride {
			for d, k := range recs[w+1 : w+stride] {
				if k < mins[d] {
					mins[d] = k
				}
				if k > maxs[d] {
					maxs[d] = k
				}
			}
		}
		split, widest := 0, -1.0
		for d, inv := range b.invExtent {
			if w := (keyValue(maxs[d]) - keyValue(mins[d])) * inv; w > widest {
				split, widest = d, w
			}
		}
		groups := (len(recs)/stride + b.groupRows - 1) / b.groupRows
		k := groups / 2 * b.groupRows
		selectSmallest(recs, stride, 1+split, k)
		left, right := recs[:k*stride], recs[k*stride:]
		if groups >= parallelTileGroups {
			b.pool.Fan(slot, 2, func(half, slot int) {
				if half == 0 {
					b.tile(left, stride, slot)
				} else {
					b.tile(right, stride, slot)
				}
			})
			return
		}
		b.tile(left, stride, slot)
		recs = right
	}
}

// selectSmallest permutes the stride-word records of recs so that the first k
// are the k smallest under (record[keyWord], record[0]) order, in O(len(recs))
// expected time. record[0] is unique, so the order is total.
func selectSmallest(recs []uint64, stride, keyWord, k int) {
	before := func(i int, key, pos uint64) bool { // record i sorts before (key, pos)
		rk := recs[i*stride+keyWord]
		return rk < key || rk == key && recs[i*stride] < pos
	}
	after := func(i int, key, pos uint64) bool {
		rk := recs[i*stride+keyWord]
		return rk > key || rk == key && recs[i*stride] > pos
	}
	// Invariant: records [0,lo) sort before [lo,n), [0,hi) before [hi,n),
	// and lo <= k <= hi.
	lo, hi := 0, len(recs)/stride
	// Quickselect around the median of three records at pseudo-random (but
	// deterministic) places, so that no natural arrival pattern — sorted,
	// reversed, rising then falling — degrades it. Should a crafted input
	// exhaust the budget anyway, the remaining range is simply sorted.
	rnd := uint64(hi)*0x9E3779B97F4A7C15 | 1
	for budget := 4 * bits.Len(uint(hi)); lo < k && k < hi && hi-lo > 12 && budget > 0; budget-- {
		var pick [3]int
		for t := range pick {
			rnd ^= rnd << 13
			rnd ^= rnd >> 7
			rnd ^= rnd << 17
			pick[t] = lo + int(rnd%uint64(hi-lo))
		}
		a, m, z := pick[0], pick[1], pick[2]
		if before(m, recs[a*stride+keyWord], recs[a*stride]) {
			a, m = m, a
		}
		if before(z, recs[m*stride+keyWord], recs[m*stride]) {
			m = z
			if before(m, recs[a*stride+keyWord], recs[a*stride]) {
				m = a
			}
		}
		pk, pp := recs[m*stride+keyWord], recs[m*stride]
		// Hoare partition around the pivot: it is a record of the range, so
		// it stops both inner scans before they leave it.
		i, j := lo, hi-1
		for i <= j {
			for before(i, pk, pp) {
				i++
			}
			for after(j, pk, pp) {
				j--
			}
			if i <= j {
				swapRecords(recs, stride, i, j)
				i++
				j--
			}
		}
		if k <= j+1 {
			hi = j + 1
		} else {
			lo = i
		}
	}
	if lo < k && k < hi {
		sortRecords(recs[lo*stride:hi*stride], stride, keyWord)
	}
}

func swapRecords(recs []uint64, stride, i, j int) {
	a, b := recs[i*stride:(i+1)*stride], recs[j*stride:(j+1)*stride]
	for w := range a {
		a[w], b[w] = b[w], a[w]
	}
}

// sortRecords sorts the stride-word records of recs by (record[keyWord],
// record[0]): an index sort, then one pass moving the records into place.
func sortRecords(recs []uint64, stride, keyWord int) {
	idx := make([]int, len(recs)/stride)
	for i := range idx {
		idx[i] = i
	}
	from := slices.Clone(recs)
	slices.SortFunc(idx, func(a, b int) int {
		if c := cmp.Compare(from[a*stride+keyWord], from[b*stride+keyWord]); c != 0 {
			return c
		}
		return cmp.Compare(from[a*stride], from[b*stride])
	})
	for to, i := range idx {
		copy(recs[to*stride:(to+1)*stride], from[i*stride:(i+1)*stride])
	}
}

// packOrder fills sc.order with one sortable word per tiled record: sorting
// the words of a tile of groupRows records orders its rows by the run-key
// columns — those with at most runKeyCap distinct values in the partition,
// most significant first in ascending order of distinct count (ties in column
// order) — then by position. A column whose rank bits no longer fit in the
// word is left out, with every column after it: those are sc.tails, the
// candidates for a tile's tail key, and sc.rankBits is how many high bits the
// ranks took. Below the position, the low slotBits bits (returned) say which
// record of the tile is the row's.
func (sc *clusterScratch) packOrder(n, stride, groupRows int) (slotBits int) {
	dims := stride - 1
	for len(sc.census) < dims {
		sc.census = append(sc.census, columnCensus{})
	}
	census := sc.census[:dims]
	for d := range census {
		census[d].dim = d
		census[d].take(sc.recs, stride, 1+d)
	}
	slices.SortStableFunc(census, func(a, b columnCensus) int { return len(a.vals) - len(b.vals) })

	// Positions take bits.Len(n) bits, tile slots as many as the largest
	// tile needs; what is left of the word is for ranks.
	posBits := bits.Len(uint(n))
	slotBits = bits.Len(uint(min(groupRows, n) - 1))
	sc.order = slices.Grow(sc.order[:0], n)[:n]
	for i := range sc.order {
		sc.order[i] = sc.recs[i*stride]<<slotBits | uint64(i%groupRows)
	}
	free := 64 - posBits - slotBits
	sc.tails = sc.tails[:0]
	for i := range census {
		c := &census[i]
		width := bits.Len(uint(len(c.vals) - 1))
		if len(c.vals) > runKeyCap || width > free {
			for _, c := range census[i:] {
				sc.tails = append(sc.tails, c.dim)
			}
			slices.Sort(sc.tails)
			break
		}
		if width == 0 {
			continue // constant column
		}
		free -= width
		// rank[f] is the rank of the f-th key first seen.
		var rank [runKeyCap]uint64
		for r, f := range c.first {
			rank[f] = uint64(r) << (posBits + slotBits + free)
		}
		for i, f := range c.codes {
			sc.order[i] |= rank[f]
		}
	}
	sc.rankBits = 64 - posBits - slotBits - free
	return slotBits
}

// take counts the distinct values of one column (word keyWord of every
// record) and records each record's value by first-seen number. It stops at
// the first value past runKeyCap, leaving len(c.vals) == runKeyCap+1.
func (c *columnCensus) take(recs []uint64, stride, keyWord int) {
	c.vals, c.first = c.vals[:0], c.first[:0]
	n := len(recs) / stride
	c.codes = slices.Grow(c.codes[:0], n)[:n]
	for i := range c.codes {
		k := recs[i*stride+keyWord]
		// Binary search for the first value >= k.
		lo, hi := 0, len(c.vals)
		for lo < hi {
			if mid := int(uint(lo+hi) >> 1); c.vals[mid] < k {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == len(c.vals) || c.vals[lo] != k {
			if len(c.vals) == runKeyCap {
				c.vals = append(c.vals, k)
				return
			}
			c.first = slices.Insert(c.first, lo, uint8(len(c.vals)))
			c.vals = slices.Insert(c.vals, lo, k)
		}
		c.codes[i] = c.first[lo]
	}
}
