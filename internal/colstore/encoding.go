package colstore

import (
	"math"
	"math/bits"
	"slices"
	"sort"
)

// colKind identifies the physical encoding of one column chunk. The values
// are part of the PAWC v2 on-disk format and must not be renumbered.
type colKind uint8

const (
	// colRaw stores every value as a float64 (8 bytes/value).
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

	// colRaw. pieces holds the starts of raw's maximal ascending pieces when
	// they are long enough to search (ascendingPieces), else nil. It is derived
	// from the values wherever a chunk comes to be and is never stored.
	raw    []float64
	pieces []int32

	// colDict: dict is sorted ascending; codes index into it. codes16 is
	// used when len(dict) > 256, codes8 otherwise.
	dict    []float64
	codes8  []uint8
	codes16 []uint16

	// colRLE
	runVals []float64
	runLens []uint32

	// colFOR: value(i) = base + float64(delta_i), delta packed at forBits
	// bits per value (0 bits: every value equals base).
	base    float64
	forBits uint8
	packed  []uint64
}

// payloadBytes returns the encoded physical size of the column chunk — the
// byte count its PAWC v2 payload occupies (excluding the 1-byte kind tag).
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
	case colFOR:
		return 9 + int64(len(c.packed))*8
	default:
		return int64(c.n) * 8
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
	case colFOR:
		return (int64(k)*int64(c.forBits) + 7) / 8
	default:
		// Raw values are 8 bytes; so, when gathered, is a run chunk's value
		// (narrow accounts a predicate on runs itself, 12 bytes per run).
		return int64(k) * 8
	}
}

// forWords returns the packed-word count for n values at w bits each.
func forWords(n int, w uint8) int {
	return (n*int(w) + 63) / 64
}

// forAt extracts delta i from the packed words at w bits per value. w must
// be in (0, 32]. The shift counts are masked to what they can be anyway, which
// spares the compiler's guard for counts of 64 and over.
func forAt(packed []uint64, i int, w uint8) uint64 {
	bitPos := uint(i) * uint(w)
	word, off := bitPos>>6, bitPos&63
	v := packed[word] >> off
	if off+uint(w) > 64 {
		v |= packed[word+1] << ((64 - off) & 63)
	}
	return v & (1<<(w&63) - 1)
}

// encodeScratch is the reusable staging of encodeColumn's dictionary probe.
type encodeScratch struct {
	sorted []float64
	set    []uint64 // open-addressing set of value bit patterns
}

// encodeColumn picks the cheapest exact encoding for vals and returns the
// encoded column. The choice is a pure function of the values, so encoding
// is deterministic. sc is reused across calls.
func encodeColumn(vals []float64, sc *encodeScratch) column {
	n := len(vals)
	c := column{kind: colRaw, n: n}
	if n == 0 {
		return c
	}

	// Pass 1: min and run structure.
	min := vals[0]
	runs := 1
	for i := 1; i < n; i++ {
		v := vals[i]
		if v < min {
			min = v
		}
		if v != vals[i-1] {
			runs++
		}
	}

	// Pass 2: frame-of-reference applicability. Deltas must be exactly
	// reconstructible (base + float64(delta) == value) and fit 32 bits.
	forOK := true
	var maxDelta uint64
	for _, v := range vals {
		d := v - min
		if !(d >= 0) || d != math.Trunc(d) || d >= 1<<32 {
			forOK = false
			break
		}
		u := uint64(d)
		if min+float64(u) != v {
			forOK = false
			break
		}
		if u > maxDelta {
			maxDelta = u
		}
	}
	var forBitsN uint8
	if forOK {
		forBitsN = uint8(bits.Len64(maxDelta))
	}

	// Candidate payload sizes; pick the smallest, preferring RLE, then
	// dictionary, then FOR on ties (whole-run rejection beats per-code
	// comparison beats bit extraction).
	rawB := int64(n) * 8
	best, bestB := colRaw, rawB
	if rleB := int64(4 + runs*12); rleB < bestB {
		best, bestB = colRLE, rleB
	}
	forB := int64(math.MaxInt64)
	if forOK {
		forB = 9 + int64(forWords(n, forBitsN))*8
	}
	// Dictionary probe. No dictionary is smaller than one entry plus a byte
	// per row, so there is nothing to probe when RLE already matches that
	// floor or FOR beats it; otherwise count the distinct values, giving up
	// at the count past which a dictionary cannot be the smallest.
	card := 0
	if dictFloor := 4 + 8 + int64(n); bestB > dictFloor && forB >= dictFloor {
		tooMany := int((bestB-4-int64(n))/8) + 1
		if tooMany > dictMaxCard+1 {
			tooMany = dictMaxCard + 1
		}
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
		c.base = min
		c.forBits = forBitsN
		c.packed = make([]uint64, forWords(n, forBitsN))
		if forBitsN > 0 {
			w := uint(forBitsN)
			for i, v := range vals {
				d := uint64(v - min)
				bitPos := i * int(w)
				word, off := bitPos>>6, uint(bitPos&63)
				c.packed[word] |= d << off
				if off+w > 64 {
					c.packed[word+1] |= d >> (64 - off)
				}
			}
		}
	default:
		c.raw = append([]float64(nil), vals...)
		c.pieces = ascendingPieces(c.raw)
	}
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

// ascendingPieces returns the starts of the maximal ascending pieces of vals
// — a piece ends wherever !(vals[i-1] <= vals[i]), so a NaN is a piece of its
// own and -0, +0 in either order are not a descent — or nil when the pieces
// average under minSearchRows values.
func ascendingPieces(vals []float64) []int32 {
	n := 1
	for i := 1; i < len(vals); i++ {
		n += b2i(!(vals[i-1] <= vals[i]))
	}
	if len(vals) < n*minSearchRows {
		return nil
	}
	pieces := make([]int32, 1, n)
	for i := 1; i < len(vals); i++ {
		if !(vals[i-1] <= vals[i]) {
			pieces = append(pieces, int32(i))
		}
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
	case colFOR:
		if c.forBits == 0 {
			for i := 0; i < c.n; i++ {
				dst[i] = c.base
			}
			return
		}
		for i := 0; i < c.n; i++ {
			dst[i] = c.base + float64(forAt(c.packed, i, c.forBits))
		}
	default:
		copy(dst, c.raw)
	}
}

// forDeltaRange maps the value interval [lo, hi] onto the packed delta
// domain. ok is false when no delta can satisfy the predicate.
func (c *column) forDeltaRange(lo, hi float64) (dLo, dHi uint64, ok bool) {
	maxDelta := uint64(1)<<uint(c.forBits) - 1
	if c.forBits == 0 {
		maxDelta = 0
	}
	fLo := math.Ceil(lo - c.base)
	fHi := math.Floor(hi - c.base)
	if fHi < 0 || fLo > float64(maxDelta) {
		return 0, 0, false
	}
	if fLo < 0 {
		fLo = 0
	}
	dLo = uint64(fLo)
	if fHi >= float64(maxDelta) {
		dHi = maxDelta
	} else {
		dHi = uint64(fHi)
	}
	return dLo, dHi, dLo <= dHi
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
// at or behind its read cursor). Codes and deltas test the interval with the
// one unsigned compare x-a <= w; raw values keep the two float comparisons, so
// -0 == +0 and NaN never matches. DESIGN.md §11.

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
	// Each span, cut at the piece boundaries inside it, is ascending stretches;
	// what survives of one is one range. Charged 8 bytes per value compared.
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
			a, b, tested := searchAscending(c.raw[l:h], lo, hi)
			compared += tested
			if a < b {
				out = appendSpan(out, l+int32(a), l+int32(b))
			}
			l = h
		}
	}
	return out, int64(compared) * 8
}

// appendSpan appends [lo, hi) to out, merged into the last span if adjacent.
func appendSpan(out []span, lo, hi int32) []span {
	if last := len(out) - 1; last >= 0 && out[last].hi == lo {
		out[last].hi = hi
		return out
	}
	return append(out, span{lo, hi})
}

// searchAscending returns the range [a, b) of v, which ascends and holds no
// NaN unless it is one value, that lies in [lo, hi] (a >= b: none), and how
// many values it compared: every one below minSearchRows, else each end
// against its bound and a binary search for a bound that end does not meet —
// never more than len(v). The comparisons are the linear kernels': a NaN
// bound matches nothing.
func searchAscending(v []float64, lo, hi float64) (a, b, compared int) {
	n := len(v)
	if n < minSearchRows {
		for _, x := range v {
			a += b2i(!(x >= lo))
			b += b2i(x <= hi)
		}
		return a, b, n
	}
	b = n
	if compared++; !(v[0] >= lo) {
		l, h := 1, n
		for l < h {
			m := int(uint(l+h) >> 1)
			if compared++; v[m] >= lo {
				h = m
			} else {
				l = m + 1
			}
		}
		a = l
	}
	if a == n {
		return a, b, compared
	}
	if compared++; !(v[n-1] <= hi) {
		l, h := a, n-1
		for l < h {
			m := int(uint(l+h) >> 1)
			if compared++; v[m] <= hi {
				l = m + 1
			} else {
				h = m
			}
		}
		b = l
	}
	return a, b, min(compared, n)
}

// searchBytes estimates what narrow reads of a raw chunk with pieces: two
// ends and two binary searches a piece.
func (c *column) searchBytes() int64 {
	return int64(len(c.pieces)) * 16 * int64(1+bits.Len(uint(c.n/len(c.pieces))))
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
// the frame of reference answers for all at once (0 or k), else -1: a code or
// delta x passes when x-a <= w, raw values are compared as floats. The charge
// is the dictionary probe plus the values tested; a FOR chunk tested at every
// position is charged its payload (its 9-byte header if that settles it).
func (c *column) resolve(lo, hi float64, k int) (a, w uint64, settled int, bytes int64) {
	switch c.kind {
	case colDict:
		cLo, cHi := c.dictCodeRange(lo, hi)
		bytes = 4 + int64(len(c.dict))*8
		if cLo >= cHi {
			return 0, 0, 0, bytes
		} else if cHi-cLo == len(c.dict) {
			return 0, 0, k, bytes
		}
		return uint64(cLo), uint64(cHi - 1 - cLo), -1, bytes + c.valueBytes(k)
	case colFOR:
		dLo, dHi, ok := c.forDeltaRange(lo, hi)
		if k == c.n {
			bytes = 9 // base + bit width
		}
		if !ok {
			return 0, 0, 0, bytes
		} else if c.forBits == 0 {
			return 0, 0, k, bytes
		} else if k == c.n {
			return dLo, dHi - dLo, -1, c.payloadBytes()
		}
		return dLo, dHi - dLo, -1, c.valueBytes(k)
	default:
		return 0, 0, -1, c.valueBytes(k)
	}
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
		case c.kind == colFOR:
			packed, bits := c.packed, c.forBits
			for i := sp.lo; i < sp.hi; i++ {
				sel[n] = i
				n += b2i(forAt(packed, int(i), bits)-a <= w)
			}
		default:
			for i, x := range c.raw[sp.lo:sp.hi] {
				sel[n] = sp.lo + int32(i)
				n += b2i(x >= lo) & b2i(x <= hi)
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
		case c.kind == colFOR:
			packed, bits := c.packed, c.forBits
			for i := sp.lo; i < sp.hi; i++ {
				n += b2i(forAt(packed, int(i), bits)-a <= w)
			}
		default:
			for _, x := range c.raw[sp.lo:sp.hi] {
				n += b2i(x >= lo) & b2i(x <= hi)
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
	case c.kind == colFOR:
		packed, bits := c.packed, c.forBits
		for _, i := range sel {
			sel[n] = i
			n += b2i(forAt(packed, int(i), bits)-a <= w)
		}
	default:
		raw := c.raw
		for _, i := range sel {
			sel[n] = i
			x := raw[i]
			n += b2i(x >= lo) & b2i(x <= hi)
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
	case colFOR:
		if c.forBits == 0 {
			for k := range sel {
				dst[k*stride+off] = c.base
			}
			return
		}
		for k, i := range sel {
			dst[k*stride+off] = c.base + float64(forAt(c.packed, int(i), c.forBits))
		}
	default:
		for k, i := range sel {
			dst[k*stride+off] = c.raw[i]
		}
	}
}
