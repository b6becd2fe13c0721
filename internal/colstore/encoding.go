package colstore

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// colKind identifies the physical encoding of one column chunk. The values
// are part of the PAWC v3 on-disk format and must not be renumbered.
type colKind uint8

const (
	// colRaw stores every value exactly as its order key's offset from the
	// chunk's least order key, bit-packed at the width the chunk's key range
	// needs: any float64, NaN payloads and signed zeros included.
	colRaw colKind = iota
	// colDict stores a sorted dictionary of the distinct values plus one
	// small fixed-width code per row. Range predicates are evaluated once
	// against the dictionary and then compared against codes.
	colDict
	// colRLE stores (value, run length) pairs. Predicates accept or reject
	// whole runs with a single comparison.
	colRLE
	// colFOR is frame-of-reference bit-packing: every value is base plus a
	// non-negative integral delta packed at the minimal bit width.
	colFOR
)

// dictMaxCard caps dictionary cardinality at what a 2-byte code addresses.
const dictMaxCard = 1 << 16

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

	// colRaw and colFOR: value i is an offset x_i, packed at width bits per
	// value from bit i·width of packed, least significant bit first (unpack).
	// A raw value is the float whose order key is minKey + x_i; a FOR value is
	// base + float64(x_i). pieces holds the starts of a raw chunk's maximal
	// pieces ascending in key order when they are long enough to search
	// (ascendingPieces), else nil; it is derived from the offsets wherever a
	// chunk comes to be and is never stored.
	packed []byte
	width  uint8
	minKey uint64
	base   float64
	pieces []int32

	// colDict: dict is sorted ascending; codes index into it. codes16 is
	// used when len(dict) > 256, codes8 otherwise.
	dict    []float64
	codes8  []uint8
	codes16 []uint16

	// colRLE
	runVals []float64
	runLens []uint32
}

// payloadBytes returns the encoded physical size of the column chunk — the
// byte count its PAWC v3 payload occupies (excluding the 1-byte kind tag).
func (c *column) payloadBytes() int64 {
	switch c.kind {
	case colDict:
		b := int64(4) + int64(len(c.dict))*8
		if c.codes8 != nil {
			return b + int64(len(c.codes8))
		}
		return b + int64(len(c.codes16))*2
	case colRLE:
		return 4 + int64(len(c.runVals))*12
	default:
		return packedPayload(c.n, c.width)
	}
}

// valueBytes returns the bytes decoded when k individual values of the
// column are touched (selection-vector refinement or late materialization).
func (c *column) valueBytes(k int) int64 {
	switch c.kind {
	case colDict:
		if c.codes8 != nil {
			return int64(k)
		}
		return int64(k) * 2
	case colRLE:
		// A gathered run value is 8 bytes (narrow accounts a predicate on
		// runs itself, 12 bytes per run).
		return int64(k) * 8
	default:
		return (int64(k)*int64(c.width) + 7) / 8
	}
}

// packedPayload is the PAWC payload of n offsets packed at width bits: the
// 8-byte base or least key, the width byte, then ⌈n·width/8⌉ bytes.
func packedPayload(n int, width uint8) int64 {
	return 9 + (int64(n)*int64(width)+7)/8
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
	packed := make([]byte, packedPayload(len(vals), width)-9+8)
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
// encoded column. The choice is a pure function of the values, so encoding
// is deterministic. sc is reused across calls.
func encodeColumn(vals []float64, sc *encodeScratch) column {
	n := len(vals)
	c := column{kind: colRaw, n: n}
	// Pass 1: min, run structure, and the order keys — kept in sc.offs for a
	// raw chunk — with their range.
	sc.offs = slices.Grow(sc.offs[:0], n)[:n]
	if n == 0 {
		return sc.rawChunk(0, 0)
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
		if v != vals[i-1] {
			runs++
		}
		k := orderKey(v)
		sc.offs[i] = k
		minKey, maxKey = min(minKey, k), max(maxKey, k)
	}

	// Pass 2: frame-of-reference applicability. Deltas must be exactly
	// reconstructible (base + float64(delta) == value) and fit 32 bits.
	forOK := true
	var maxDelta uint64
	for _, v := range vals {
		d := v - lowest
		if !(d >= 0) || d != math.Trunc(d) || d >= 1<<32 {
			forOK = false
			break
		}
		u := uint64(d)
		if lowest+float64(u) != v {
			forOK = false
			break
		}
		if u > maxDelta {
			maxDelta = u
		}
	}

	// Candidate payload sizes; pick the smallest, preferring RLE, then
	// dictionary, then FOR, then raw on ties (whole-run rejection beats
	// per-code comparison beats integral offsets beats key offsets).
	rleB := int64(4 + runs*12)
	rawB := packedPayload(n, packWidth(maxKey-minKey))
	forB := int64(math.MaxInt64)
	if forOK {
		forB = packedPayload(n, packWidth(maxDelta))
	}
	// Dictionary probe. A dictionary wins at limit bytes or fewer, and none is
	// smaller than one entry plus a byte per row, so there is nothing to probe
	// below that floor; otherwise count the distinct values, giving up at the
	// count past which a dictionary cannot win.
	best, bestB, card := colRLE, rleB, 0
	if limit := min(rleB-1, forB, rawB); limit >= 4+8+int64(n) {
		tooMany := min(int((limit-4-int64(n))/8)+1, dictMaxCard+1)
		if card = sc.distinct(vals, tooMany); card < tooMany {
			w := int64(2)
			if card <= 256 {
				w = 1
			}
			if dictB := 4 + int64(card)*8 + w*int64(n); dictB < bestB {
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
		c.kind = colRLE
		c.runVals = make([]float64, 0, runs)
		c.runLens = make([]uint32, 0, runs)
		cur, length := vals[0], uint32(1)
		for i := 1; i < n; i++ {
			if vals[i] == cur {
				length++
				continue
			}
			c.runVals = append(c.runVals, cur)
			c.runLens = append(c.runLens, length)
			cur, length = vals[i], 1
		}
		c.runVals = append(c.runVals, cur)
		c.runLens = append(c.runLens, length)
	case colDict:
		c.kind = colDict
		sc.sorted = append(sc.sorted[:0], vals...)
		slices.Sort(sc.sorted)
		c.dict = make([]float64, 0, card)
		for i, v := range sc.sorted {
			if i == 0 || v != sc.sorted[i-1] {
				c.dict = append(c.dict, v)
			}
		}
		if card <= 256 {
			c.codes8 = make([]uint8, n)
			for i, v := range vals {
				c.codes8[i] = uint8(dictCode(c.dict, v))
			}
		} else {
			c.codes16 = make([]uint16, n)
			for i, v := range vals {
				c.codes16[i] = uint16(dictCode(c.dict, v))
			}
		}
	case colFOR:
		c.kind = colFOR
		c.base = lowest
		for i, v := range vals {
			sc.offs[i] = uint64(v - lowest)
		}
		c.width = packWidth(maxDelta)
		c.packed = pack(sc.offs, 0, c.width)
	default:
		return sc.rawChunk(minKey, maxKey)
	}
	return c
}

// rawChunk is the raw chunk of the order keys in sc.offs, lo and hi their
// range: each key's offset from lo, packed, and the chunk's ascending pieces.
func (sc *encodeScratch) rawChunk(lo, hi uint64) column {
	c := column{kind: colRaw, n: len(sc.offs), minKey: lo, width: packWidth(hi - lo)}
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
// stretch is tested value by value, and a raw chunk whose ascending pieces
// average fewer has none: values in no order — two to a piece — stay on the
// linear kernels.
const minSearchRows = 32

// ascendingPieces returns the starts of the maximal pieces of a raw chunk that
// ascend in key order — a piece ends wherever an offset is below the one
// before, so +0 after -0 continues a piece and -0 after +0 ends one; a NaN,
// whose key is above +Inf's, extends the piece it ends, and a negative NaN,
// below -Inf's, starts one — or nil when the pieces average under
// minSearchRows values.
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

// distinct counts the distinct values of vals as float comparison sees them
// (-0 equals +0) — what sorting and counting value changes would give, without
// the sort. It returns limit as soon as the count reaches it, and at a NaN: a
// sorted dictionary cannot be searched past one, so no chunk holding a NaN is
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
		switch {
		case v == 0:
			k = 0
		case v != v:
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

// dictCode returns the code of v in the sorted dictionary.
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

// dictCodeRange returns the half-open code interval [cLo, cHi) whose
// dictionary values fall inside [lo, hi].
func (c *column) dictCodeRange(lo, hi float64) (int, int) {
	cLo := dictCode(c.dict, lo) // first value >= lo
	cHi := sort.Search(len(c.dict), func(i int) bool { return c.dict[i] > hi })
	return cLo, cHi
}

// decodeInto decodes the whole column into dst[:n].
func (c *column) decodeInto(dst []float64) {
	switch c.kind {
	case colDict:
		if c.codes8 != nil {
			for i, code := range c.codes8 {
				dst[i] = c.dict[code]
			}
		} else {
			for i, code := range c.codes16 {
				dst[i] = c.dict[code]
			}
		}
	case colRLE:
		p := 0
		for r, v := range c.runVals {
			for k := uint32(0); k < c.runLens[r]; k++ {
				dst[p] = v
				p++
			}
		}
	default:
		packed, width, mask := c.packed, uint(c.width), c.mask()
		for i := range dst[:c.n] {
			dst[i] = c.valueOf(unpack(packed, uint(i)*width, mask))
		}
	}
}

// valueOf is the value offset x of a raw or FOR chunk stands for.
func (c *column) valueOf(x uint64) float64 {
	if c.kind == colFOR {
		return c.base + float64(x)
	}
	return keyValue(c.minKey + x)
}

// offsetRange maps [lo, hi] onto the offsets of a raw or FOR chunk: the
// offsets x with a <= x <= a+w are those whose values lie in [lo, hi] as
// floats compare, so a raw chunk maps a zero bound to -0 below and +0 above,
// and a NaN value never matches. ok is false when no offset can: an empty
// interval, a NaN bound, or one the chunk's offsets miss.
func (c *column) offsetRange(lo, hi float64) (a, w uint64, ok bool) {
	if !(lo <= hi) {
		return 0, 0, false
	}
	b := c.mask() // the highest offset the width holds
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
// chunk, whose runs pass or fail whole at a comparison per run, and a raw chunk
// in ascending pieces, where the survivors of a piece are one range found by
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
// at or behind its read cursor). Codes and offsets test the interval with the
// one unsigned compare x-a <= w; raw offsets are order keys, and offsetRange
// maps [lo, hi] onto them so that -0 == +0 and NaN never matches. DESIGN.md §11.

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

// expand appends the positions of spans to sel[:0], ascending: for rows to
// materialise, or past a chunk whose header alone passes every value.
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
// The chunk is RLE or a raw chunk with pieces.
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
	// what survives of one is one range. Charged width/8 bytes per value
	// compared.
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
	return out, c.valueBytes(compared)
}

// appendSpan appends [lo, hi) to out, merged into the last span if adjacent.
func appendSpan(out []span, lo, hi int32) []span {
	if last := len(out) - 1; last >= 0 && out[last].hi == lo {
		out[last].hi = hi
		return out
	}
	return append(out, span{lo, hi})
}

// searchAscending returns the range [a, b) of positions l..h-1 of a raw chunk,
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

// searchBytes estimates what narrow reads of a raw chunk with pieces: two
// ends and two binary searches a piece, width/8 bytes a value.
func (c *column) searchBytes() int64 {
	return c.valueBytes(len(c.pieces) * 2 * (1 + bits.Len(uint(c.n/len(c.pieces)))))
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

// resolve maps [lo, hi] onto a dictionary, FOR or raw chunk and prices testing
// k of its values. settled is how many of the k pass when the dictionary or
// the chunk's header answers for all at once (0 or k), else -1: a code or
// offset x passes when x-a <= w. The charge is the dictionary probe plus the
// values tested; a packed chunk tested at every position is charged its
// payload (its 9-byte header if that settles it).
func (c *column) resolve(lo, hi float64, k int) (a, w uint64, settled int, bytes int64) {
	if c.kind == colDict {
		cLo, cHi := c.dictCodeRange(lo, hi)
		bytes = 4 + int64(len(c.dict))*8
		if cLo >= cHi {
			return 0, 0, 0, bytes
		} else if cHi-cLo == len(c.dict) {
			return 0, 0, k, bytes
		}
		return uint64(cLo), uint64(cHi - 1 - cLo), -1, bytes + c.valueBytes(k)
	}
	a, w, ok := c.offsetRange(lo, hi)
	if k == c.n {
		bytes = 9 // base or least key, and the width
	}
	if !ok {
		return 0, 0, 0, bytes
	} else if c.width == 0 {
		return 0, 0, k, bytes
	} else if k == c.n {
		return a, w, -1, c.payloadBytes()
	}
	return a, w, -1, c.valueBytes(k)
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
	for _, sp := range spans {
		switch {
		case c.codes8 != nil:
			for i, code := range c.codes8[sp.lo:sp.hi] {
				sel[n] = sp.lo + int32(i)
				n += b2i(code-uint8(a) <= uint8(w))
			}
		case c.codes16 != nil:
			for i, code := range c.codes16[sp.lo:sp.hi] {
				sel[n] = sp.lo + int32(i)
				n += b2i(code-uint16(a) <= uint16(w))
			}
		default:
			packed, width, mask := c.packed, uint(c.width), c.mask()
			for i, p := sp.lo, uint(sp.lo)*width; i < sp.hi; i, p = i+1, p+width {
				sel[n] = i
				n += b2i(unpack(packed, p, mask)-a <= w)
			}
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
	for _, sp := range spans {
		switch {
		case c.codes8 != nil:
			for _, code := range c.codes8[sp.lo:sp.hi] {
				n += b2i(code-uint8(a) <= uint8(w))
			}
		case c.codes16 != nil:
			for _, code := range c.codes16[sp.lo:sp.hi] {
				n += b2i(code-uint16(a) <= uint16(w))
			}
		default:
			packed, width, mask := c.packed, uint(c.width), c.mask()
			for p, end := uint(sp.lo)*width, uint(sp.hi)*width; p < end; p += width {
				n += b2i(unpack(packed, p, mask)-a <= w)
			}
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
	switch {
	case c.codes8 != nil:
		codes := c.codes8
		for _, i := range sel {
			sel[n] = i
			n += b2i(codes[i]-uint8(a) <= uint8(w))
		}
	case c.codes16 != nil:
		codes := c.codes16
		for _, i := range sel {
			sel[n] = i
			n += b2i(codes[i]-uint16(a) <= uint16(w))
		}
	default:
		packed, width, mask := c.packed, uint(c.width), c.mask()
		for _, i := range sel {
			sel[n] = i
			n += b2i(unpack(packed, uint(i)*width, mask)-a <= w)
		}
	}
	return sel[:n], bytes
}

// gather materializes value(sel[k]) into dst[k*stride+off] for every k.
// sel must be ascending (selection vectors always are).
func (c *column) gather(sel []int32, dst []float64, stride, off int) {
	switch c.kind {
	case colDict:
		if c.codes8 != nil {
			for k, i := range sel {
				dst[k*stride+off] = c.dict[c.codes8[i]]
			}
		} else {
			for k, i := range sel {
				dst[k*stride+off] = c.dict[c.codes16[i]]
			}
		}
	case colRLE:
		if len(sel) == 0 {
			return
		}
		ri, runEnd := 0, int32(c.runLens[0])
		for k, i := range sel {
			for i >= runEnd {
				ri++
				runEnd += int32(c.runLens[ri])
			}
			dst[k*stride+off] = c.runVals[ri]
		}
	default:
		packed, width, mask := c.packed, uint(c.width), c.mask()
		for k, i := range sel {
			dst[k*stride+off] = c.valueOf(unpack(packed, uint(i)*width, mask))
		}
	}
}
