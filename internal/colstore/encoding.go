package colstore

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// colKind identifies the physical encoding of one column chunk. The values
// are part of the PAWC on-disk format and must not be renumbered.
type colKind uint8

const (
	// colRaw stores every value exactly as its order key's offset from the
	// chunk's least order key, bit-packed at the width the chunk's key range
	// needs: any float64, NaN payloads and signed zeros included.
	colRaw colKind = iota
	// colDict stores a sorted dictionary of the distinct values and, per row,
	// its value's rank in the dictionary, bit-packed at the width the highest
	// rank needs. Range predicates are mapped once onto a rank interval.
	colDict
	// colRLE stores (value, run length) pairs. Predicates accept or reject
	// whole runs with a single comparison.
	colRLE
	// colFOR is frame-of-reference bit-packing: every value is base plus a
	// non-negative integral delta packed at the minimal bit width.
	colFOR
)

// String names the encoding for introspection and benchmark reports.
func (k colKind) String() string {
	switch k {
	case colDict:
		return "dict"
	case colRLE:
		return "rle"
	case colFOR:
		return "for"
	default:
		return "raw"
	}
}

// column is one encoded column chunk of a row group. Exactly the fields of
// the active kind are populated; the rest stay nil/zero.
type column struct {
	kind colKind
	n    int

	// Every kind but colRLE: value i is an offset x_i, packed at width bits
	// per value from bit i·width of packed, least significant bit first
	// (unpack). What an offset stands for is the kind's (valueOf): a raw value
	// is the float whose order key is minKey + x_i, a FOR value base +
	// float64(x_i), a dictionary value dict[x_i], dict sorted ascending. pieces
	// holds the starts of the chunk's maximal pieces of ascending offsets when
	// they are long enough to search (ascendingPieces), else nil; it is derived
	// from the offsets wherever a chunk comes to be and is never stored.
	packed []byte
	width  uint8
	minKey uint64
	base   float64
	dict   []float64
	pieces []int32

	// colRLE
	runVals []float64
	runLens []uint32
}

// payloadBytes returns the encoded physical size of the column chunk — the
// byte count its PAWC payload occupies (excluding the 1-byte kind tag): a
// dictionary's card word and values, or the 8-byte base or least key, then the
// width byte and the packed offsets.
func (c *column) payloadBytes() int64 {
	switch c.kind {
	case colRLE:
		return 4 + int64(len(c.runVals))*12
	case colDict:
		return c.dictBytes() + 1 + c.valueBytes(c.n)
	}
	return 9 + c.valueBytes(c.n)
}

// valueBytes returns the bytes decoded when k individual offsets of a packed
// chunk are touched (selection-vector refinement; narrow charges a run chunk
// per run).
func (c *column) valueBytes(k int) int64 { return packedBytes(k, c.width) }

// packedBytes is the size of n offsets packed at width bits: ⌈n·width/8⌉.
func packedBytes(n int, width uint8) int64 {
	return (int64(n)*int64(width) + 7) / 8
}

// dictBytes is what mapping a range onto a dictionary's ranks reads: its card
// word and values (the width follows from the card); 0 for any other chunk.
func (c *column) dictBytes() int64 {
	if c.kind != colDict {
		return 0
	}
	return 4 + int64(len(c.dict))*8
}

// packWidth is the width offsets up to span are packed at: the bits span
// needs, where a width from 58 to 63 is stored as 64 so that every value lies
// inside the one 8-byte word that starts at its first byte (unpack).
func packWidth(span uint64) uint8 {
	if w := bits.Len64(span); w <= 57 {
		return uint8(w)
	}
	return 64
}

// pack bit-packs vals[i] - base at width bits each, into a buffer with 8 bytes
// of padding past the last value's byte, so unpack's 8-byte load never runs
// off its end. Whole words are written as they fill.
func pack(vals []uint64, base uint64, width uint8) []byte {
	packed := make([]byte, packedBytes(len(vals), width)+8)
	w, q := uint(width), 0
	var acc uint64 // the bits from byte q on not yet written
	var fill uint  // how many bits acc holds, < 64
	for _, v := range vals {
		x := v - base
		acc |= x << fill
		if fill += w; fill >= 64 {
			binary.LittleEndian.PutUint64(packed[q:], acc)
			q, fill = q+8, fill-64
			acc = x >> (w - fill) // the bits of x past the word: none when w - fill is w
		}
	}
	binary.LittleEndian.PutUint64(packed[q:], acc)
	return packed
}

// unpack returns the offset packed from bit p on — value i of a chunk starts
// at bit i·width — by one unaligned little-endian load from the byte holding
// bit p, shifted to it and masked to the width (mask: 1<<width - 1). The
// sweeps step p by the width rather than multiply it out per value.
func unpack(packed []byte, p uint, mask uint64) uint64 {
	return binary.LittleEndian.Uint64(packed[p>>3:]) >> (p & 7) & mask
}

// mask is 1<<width - 1, the offsets' mask (all ones at width 64).
func (c *column) mask() uint64 { return 1<<c.width - 1 }

// encodeScratch is the reusable staging of encodeColumn: the chunk's offsets
// before they are packed and the dictionary probe's buffers.
type encodeScratch struct {
	offs   []uint64
	sorted []float64
	set    []uint64 // open-addressing set of value bit patterns
}

// encodeColumn picks the cheapest exact encoding for vals and returns the
// encoded column: it decodes to vals bit for bit, signed zeros and NaN
// payloads included. The choice is a pure function of the values, so encoding
// is deterministic. sc is reused across calls.
func encodeColumn(vals []float64, sc *encodeScratch) column {
	n := len(vals)
	// Pass 1: min, run structure, and the order keys — kept in sc.offs for a
	// raw chunk — with their range. Runs end where the bits change: -0 and
	// +0 are two runs.
	sc.offs = slices.Grow(sc.offs[:0], n)[:n]
	if n == 0 {
		return sc.packChunk(column{kind: colRaw}, 0, 0)
	}
	lowest, runs := vals[0], 1
	minKey := orderKey(vals[0])
	maxKey := minKey
	sc.offs[0] = minKey
	for i := 1; i < n; i++ {
		v := vals[i]
		if v < lowest {
			lowest = v
		}
		runs += b2i(math.Float64bits(v) != math.Float64bits(vals[i-1]))
		k := orderKey(v)
		sc.offs[i] = k
		minKey, maxKey = min(minKey, k), max(maxKey, k)
	}

	// Pass 2: frame-of-reference applicability. Deltas must be exactly
	// reconstructible (base + float64(delta) has value's bits, which no -0
	// does) and fit 32 bits.
	forOK := true
	var maxDelta uint64
	for _, v := range vals {
		d := v - lowest
		if !(d >= 0) || d != math.Trunc(d) || d >= 1<<32 {
			forOK = false
			break
		}
		u := uint64(d)
		if math.Float64bits(lowest+float64(u)) != math.Float64bits(v) {
			forOK = false
			break
		}
		if u > maxDelta {
			maxDelta = u
		}
	}

	// Candidate payload sizes; pick the smallest, preferring RLE, then
	// dictionary, then FOR, then raw on ties (whole-run rejection beats
	// rank offsets beats integral offsets beats key offsets).
	rleB := int64(4 + runs*12)
	rawB := 9 + packedBytes(n, packWidth(maxKey-minKey))
	forB := int64(math.MaxInt64)
	if forOK {
		forB = 9 + packedBytes(n, packWidth(maxDelta))
	}
	// Dictionary probe. A dictionary of card values takes 5 + 8·card +
	// ⌈n·bits(card-1)/8⌉ bytes and wins at limit bytes or fewer. One of a
	// single value never does (raw packs that value at 0 bits, in 9 bytes),
	// and one of two or more takes at least 5 + 8·card + ⌈n/8⌉, so there is
	// nothing to probe below that size at card 2; otherwise count the
	// distinct values, giving up at the count past which that size passes
	// limit.
	best, bestB, card := colRLE, rleB, 0
	if limit, codes := min(rleB-1, forB, rawB), packedBytes(n, 1); limit >= 5+16+codes {
		tooMany := int((limit-5-codes)/8) + 1
		if card = sc.distinct(vals, tooMany); card < tooMany {
			if dictB := 5 + int64(card)*8 + packedBytes(n, packWidth(uint64(card-1))); dictB < bestB {
				best, bestB = colDict, dictB
			}
		}
	}
	if forB < bestB {
		best, bestB = colFOR, forB
	}
	if rawB < bestB {
		best = colRaw
	}

	switch best {
	case colRLE:
		c := column{kind: colRLE, n: n}
		c.runVals = make([]float64, 0, runs)
		c.runLens = make([]uint32, 0, runs)
		start := 0
		for i := 1; i <= n; i++ {
			if i == n || math.Float64bits(vals[i]) != math.Float64bits(vals[start]) {
				c.runVals = append(c.runVals, vals[start])
				c.runLens = append(c.runLens, uint32(i-start))
				start = i
			}
		}
		return c
	case colDict:
		sc.sorted = append(sc.sorted[:0], vals...)
		slices.Sort(sc.sorted)
		c := column{kind: colDict, dict: slices.Clone(slices.Compact(sc.sorted))}
		for i, v := range vals {
			sc.offs[i] = uint64(dictCode(c.dict, v))
		}
		return sc.packChunk(c, 0, uint64(card-1))
	case colFOR:
		for i, v := range vals {
			sc.offs[i] = uint64(v - lowest)
		}
		return sc.packChunk(column{kind: colFOR, base: lowest}, 0, maxDelta)
	}
	return sc.packChunk(column{kind: colRaw, minKey: minKey}, minKey, maxKey)
}

// packChunk completes c as the packed chunk of the values in sc.offs, lo and
// hi their range: each value's offset from lo, packed at the width hi-lo
// needs, and the chunk's ascending pieces.
func (sc *encodeScratch) packChunk(c column, lo, hi uint64) column {
	c.n, c.width = len(sc.offs), packWidth(hi-lo)
	c.packed = pack(sc.offs, lo, c.width)
	c.pieces = c.ascendingPieces()
	return c
}

// minSearchRows is the fewest ascending values worth a binary search: a
// search branches on the data where the sweep does not, and on row groups the
// predictor has not seen the two cost the same at about 32 values a piece
// (`make bench-kernels`, raw/narrow-N/fresh against raw/countSpans/fresh; with
// the searches starting at 8, pieces of 8 / 16 / 24 / 32 / 48 read 15.4 /
// 11.2 / 8.0 / 6.6 / 5.1 µs a group against the sweep's 7.4). A shorter
// stretch is tested value by value, and a chunk whose ascending pieces
// average fewer has none: values in no order — two to a piece — stay on the
// linear kernels.
const minSearchRows = 32

// ascendingPieces returns the starts of the maximal pieces of a packed chunk
// whose offsets ascend — a piece ends wherever an offset is below the one
// before; offsets ascend with values, so in a raw chunk +0 after -0 continues
// a piece and -0 after +0 ends one, a NaN, whose key is above +Inf's, extends
// the piece it ends, and a negative NaN, below -Inf's, starts one — or nil
// when the pieces average under minSearchRows values.
func (c *column) ascendingPieces() []int32 {
	packed, width, mask := c.packed, uint(c.width), c.mask()
	n, prev := 1, unpack(packed, 0, mask)
	for p, end := width, uint(c.n)*width; p < end; p += width {
		x := unpack(packed, p, mask)
		n += b2i(x < prev)
		prev = x
	}
	if c.n < n*minSearchRows {
		return nil
	}
	pieces, prev := make([]int32, 1, n), unpack(packed, 0, mask)
	for i, p := 1, width; i < c.n; i, p = i+1, p+width {
		x := unpack(packed, p, mask)
		if x < prev {
			pieces = append(pieces, int32(i))
		}
		prev = x
	}
	return pieces
}

// distinct counts the distinct values of vals — what sorting and counting
// value changes would give, without the sort. It returns limit as soon as the
// count reaches it, and at a NaN or a -0: a sorted dictionary cannot be
// searched past a NaN, nor tell -0 from +0, so no chunk holding either is
// dictionary-encoded.
func (sc *encodeScratch) distinct(vals []float64, limit int) int {
	// A power-of-two table at most half full. No float in it is a NaN, so a
	// NaN's bit pattern marks an empty slot.
	const empty = 0x7FF8000000000001
	logSize := bits.Len(uint(2*len(vals) - 1))
	sc.set = slices.Grow(sc.set[:0], 1<<logSize)[:1<<logSize]
	for i := range sc.set {
		sc.set[i] = empty
	}
	card := 0
	for _, v := range vals {
		k := math.Float64bits(v)
		if v != v || k == 1<<63 {
			return limit
		}
		h := k * 0x9E3779B97F4A7C15 >> (64 - logSize)
		for sc.set[h] != empty && sc.set[h] != k {
			h = (h + 1) & (1<<logSize - 1)
		}
		if sc.set[h] == empty {
			sc.set[h] = k
			if card++; card >= limit {
				return limit
			}
		}
	}
	return card
}

// dictCode returns the rank of v in the sorted dictionary: the index of the
// first value >= v (0 for a NaN v).
func dictCode(dict []float64, v float64) int {
	lo, hi := 0, len(dict)
	for lo < hi {
		mid := (lo + hi) / 2
		if dict[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// decodeInto decodes the whole column into dst[:n].
func (c *column) decodeInto(dst []float64) {
	if c.kind == colRLE {
		p := 0
		for r, v := range c.runVals {
			for k := uint32(0); k < c.runLens[r]; k++ {
				dst[p] = v
				p++
			}
		}
		return
	}
	packed, width, mask := c.packed, uint(c.width), c.mask()
	for i := range dst[:c.n] {
		dst[i] = c.valueOf(unpack(packed, uint(i)*width, mask))
	}
}

// valueOf is the value offset x of a packed chunk stands for.
func (c *column) valueOf(x uint64) float64 {
	switch c.kind {
	case colFOR:
		return c.base + float64(x)
	case colDict:
		return c.dict[x]
	}
	return keyValue(c.minKey + x)
}

// offsetRange maps [lo, hi] onto the offsets of a packed chunk: the offsets x
// with a <= x <= a+w are those whose values lie in [lo, hi] as floats compare,
// so a raw chunk maps a zero bound to -0 below and +0 above, and a NaN value
// never matches. ok is false when no offset can: an empty interval, a NaN
// bound on a raw or FOR chunk, or one the chunk's offsets miss. A dictionary
// reads a NaN bound as no bound, and its interval runs on to the mask when it
// takes the highest rank, as no offset past that rank is stored.
func (c *column) offsetRange(lo, hi float64) (a, w uint64, ok bool) {
	b := c.mask() // the highest offset the width holds
	if c.kind == colDict {
		// The ranks [cLo, cHi) hold the values inside [lo, hi].
		cLo := dictCode(c.dict, lo)
		cHi := sort.Search(len(c.dict), func(i int) bool { return c.dict[i] > hi })
		if cHi < len(c.dict) {
			b = uint64(cHi) - 1
		}
		return uint64(cLo), b - uint64(cLo), cLo < cHi
	}
	if !(lo <= hi) {
		return 0, 0, false
	}
	if c.kind == colFOR {
		fLo, fHi := math.Ceil(lo-c.base), math.Floor(hi-c.base)
		if fHi < 0 || fLo > float64(b) {
			return 0, 0, false
		}
		a = uint64(max(fLo, 0))
		if fHi < float64(b) {
			b = uint64(fHi)
		}
		return a, b - a, a <= b
	}
	kLo, kHi := orderKey(lo), orderKey(hi)
	if lo == 0 {
		kLo = orderKey(math.Copysign(0, -1))
	}
	if hi == 0 {
		kHi = orderKey(0)
	}
	if kHi < c.minKey {
		return 0, 0, false
	}
	b = min(b, kHi-c.minKey)
	if kLo > c.minKey {
		a = kLo - c.minKey
	}
	return a, b - a, a <= b
}

// b2i is 1 for true and 0 for false. The compiler lowers it to a flag move
// (SETcc), not a jump: it is how the selection kernels advance their output
// cursor by a predicate's outcome without branching on it.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// A group's selection starts as spans — half-open position ranges, at first
// the one span [0, rows) — and stays spans while chunks narrow it: an RLE
// chunk, whose runs pass or fail whole at a comparison per run, and a packed
// chunk in ascending pieces, where the survivors of a piece are one range found by
// binary search; neither writes a position. The first chunk of another kind
// turns spans into a position vector (selectSpans) that later chunks refine in
// place; a count whose last chunk still sees spans never builds the vector
// (countSpans).
//
// The per-value loops carry no data-dependent branch: the groups a scan
// decodes are the ones a query edge cuts, so a row passes with p ≈ ½ in no
// learnable order and `if pass { append }` mispredicts on every other row.
// Each loop instead writes the position to sel[n] unconditionally and advances
// n by b2i(pass) — a rejected position is overwritten by the next — which
// needs room for a write at every step (sel holds a whole group; refine writes
// at or behind its read cursor). Offsets test the interval with the one
// unsigned compare x-a <= w; raw offsets are order keys, and offsetRange maps
// [lo, hi] onto them so that -0 == +0 and NaN never matches. DESIGN.md §11.

// span is the half-open range [lo, hi) of row positions inside one group.
type span struct{ lo, hi int32 }

// spanRows is the number of positions the spans hold.
func spanRows(spans []span) int {
	n := 0
	for _, sp := range spans {
		n += int(sp.hi - sp.lo)
	}
	return n
}

// expand appends the positions of spans to sel[:0], ascending: past a chunk
// whose header alone passes every value.
func expand(spans []span, sel []int32) []int32 {
	sel = sel[:0]
	for _, sp := range spans {
		for i := sp.lo; i < sp.hi; i++ {
			sel = append(sel, i)
		}
	}
	return sel
}

// narrow appends to out the parts of spans whose value lies in [lo, hi],
// adjacent survivors merged, and returns them with the encoded bytes touched.
// The chunk is RLE or a packed chunk with pieces.
func (c *column) narrow(lo, hi float64, spans, out []span) ([]span, int64) {
	if c.kind == colRLE {
		return c.narrowRuns(lo, hi, spans, out)
	}
	a, w, settled, bytes := c.resolve(lo, hi, spanRows(spans))
	if settled >= 0 {
		if settled > 0 {
			out = append(out, spans...)
		}
		return out, bytes
	}
	// Each span, cut at the piece boundaries inside it, is ascending stretches;
	// what survives of one is one range. Charged width/8 bytes per offset
	// compared, after a dictionary's values.
	var compared int
	pieces, p := c.pieces, 0
	for _, sp := range spans {
		for p+1 < len(pieces) && pieces[p+1] <= sp.lo {
			p++
		}
		for l := sp.lo; l < sp.hi; {
			h := sp.hi
			if p+1 < len(pieces) && pieces[p+1] < h {
				p++
				h = pieces[p]
			}
			first, end, tested := c.searchAscending(int(l), int(h), a, a+w)
			compared += tested
			if first < end {
				out = appendSpan(out, l+int32(first), l+int32(end))
			}
			l = h
		}
	}
	return out, c.dictBytes() + c.valueBytes(compared)
}

// appendSpan appends [lo, hi) to out, merged into the last span if adjacent.
func appendSpan(out []span, lo, hi int32) []span {
	if last := len(out) - 1; last >= 0 && out[last].hi == lo {
		out[last].hi = hi
		return out
	}
	return append(out, span{lo, hi})
}

// searchAscending returns the range [a, b) of positions l..h-1 of a chunk,
// relative to l, whose offsets ascend there and lie in [lo, hi] (a >= b: none),
// and how many offsets it compared: every one below minSearchRows, else each
// end against its bound and a binary search for a bound that end does not
// meet — never more than h-l.
func (c *column) searchAscending(l, h int, lo, hi uint64) (a, b, compared int) {
	packed, width, mask := c.packed, uint(c.width), c.mask()
	n := h - l
	if n < minSearchRows {
		for p, end := uint(l)*width, uint(h)*width; p < end; p += width {
			x := unpack(packed, p, mask)
			a += b2i(x < lo)
			b += b2i(x <= hi)
		}
		return a, b, n
	}
	b = n
	if compared++; unpack(packed, uint(l)*width, mask) < lo {
		s, e := 1, n
		for s < e {
			m := int(uint(s+e) >> 1)
			if compared++; unpack(packed, uint(l+m)*width, mask) >= lo {
				e = m
			} else {
				s = m + 1
			}
		}
		a = s
	}
	if a == n {
		return a, b, compared
	}
	if compared++; unpack(packed, uint(h-1)*width, mask) > hi {
		s, e := a, n-1
		for s < e {
			m := int(uint(s+e) >> 1)
			if compared++; unpack(packed, uint(l+m)*width, mask) <= hi {
				s = m + 1
			} else {
				e = m
			}
		}
		b = s
	}
	return a, b, min(compared, n)
}

// searchBytes estimates what narrow reads of a packed chunk with pieces: a
// dictionary's values, then two ends and two binary searches a piece, width/8
// bytes an offset.
func (c *column) searchBytes() int64 {
	return c.dictBytes() + c.valueBytes(len(c.pieces)*2*(1+bits.Len(uint(c.n/len(c.pieces)))))
}

// narrowRuns is narrow on an RLE chunk, in O(runs + spans). It charges the
// whole payload when the spans are the whole chunk, 12 bytes per run a span
// reaches otherwise.
func (c *column) narrowRuns(lo, hi float64, spans, out []span) ([]span, int64) {
	touched, start, end := 0, int32(0), int32(0)
	rest := spans // the spans not wholly behind the current run
	for r, v := range c.runVals {
		start, end = end, end+int32(c.runLens[r])
		for len(rest) > 0 && rest[0].hi <= start {
			rest = rest[1:]
		}
		if len(rest) == 0 || rest[0].lo >= end {
			continue
		}
		touched++
		for _, sp := range rest {
			if sp.lo >= end || !(v >= lo && v <= hi) { // past the run, or the run fails
				break
			}
			out = appendSpan(out, max(sp.lo, start), min(sp.hi, end))
		}
	}
	if spanRows(spans) == c.n {
		return out, c.payloadBytes()
	}
	return out, int64(touched) * 12
}

// resolve maps [lo, hi] onto a packed chunk and prices testing k of its
// values. settled is how many of the k pass when the chunk's header answers
// for all at once (0 or k), else -1: an offset x passes when x-a <= w. The
// charge is a dictionary's values plus the offsets tested; a raw or FOR chunk
// tested at every position is charged its payload (its 9-byte header if that
// settles it).
func (c *column) resolve(lo, hi float64, k int) (a, w uint64, settled int, bytes int64) {
	bytes = c.dictBytes()
	if k == c.n && c.kind != colDict {
		bytes = 9 // base or least key, and the width
	}
	a, w, ok := c.offsetRange(lo, hi)
	if !ok {
		return 0, 0, 0, bytes
	} else if a == 0 && w >= c.mask() {
		return 0, 0, k, bytes
	}
	return a, w, -1, bytes + c.valueBytes(k)
}

// selectSpans writes to sel, which must hold c.n entries, the positions inside
// spans whose value lies in [lo, hi], ascending, and returns that prefix plus
// the encoded bytes touched. Like refine it never sees an RLE chunk.
func (c *column) selectSpans(lo, hi float64, spans []span, sel []int32) ([]int32, int64) {
	a, w, settled, bytes := c.resolve(lo, hi, spanRows(spans))
	if settled == 0 {
		return sel[:0], bytes
	} else if settled > 0 {
		return expand(spans, sel), bytes
	}
	n := 0
	packed, width, mask := c.packed, uint(c.width), c.mask()
	for _, sp := range spans {
		for i, p := sp.lo, uint(sp.lo)*width; i < sp.hi; i, p = i+1, p+width {
			sel[n] = i
			n += b2i(unpack(packed, p, mask)-a <= w)
		}
	}
	return sel[:n], bytes
}

// countSpans is selectSpans for a caller that only counts: the same tests and
// the same charge, and no position written.
func (c *column) countSpans(lo, hi float64, spans []span) (int, int64) {
	a, w, n, bytes := c.resolve(lo, hi, spanRows(spans))
	if n >= 0 {
		return n, bytes
	}
	n = 0
	packed, width, mask := c.packed, uint(c.width), c.mask()
	for _, sp := range spans {
		for p, end := uint(sp.lo)*width, uint(sp.hi)*width; p < end; p += width {
			n += b2i(unpack(packed, p, mask)-a <= w)
		}
	}
	return n, bytes
}

// refine filters sel in place, keeping positions whose value lies in [lo, hi],
// and returns the surviving prefix plus the encoded bytes touched.
func (c *column) refine(lo, hi float64, sel []int32) ([]int32, int64) {
	a, w, n, bytes := c.resolve(lo, hi, len(sel))
	if n >= 0 {
		return sel[:n], bytes
	}
	n = 0
	packed, width, mask := c.packed, uint(c.width), c.mask()
	for _, i := range sel {
		sel[n] = i
		n += b2i(unpack(packed, uint(i)*width, mask)-a <= w)
	}
	return sel[:n], bytes
}
