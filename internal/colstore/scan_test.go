package colstore

import (
	"bytes"
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"paw/internal/dataset"
	"paw/internal/geom"
	"paw/internal/parbuild"
	"paw/internal/sma"
	"paw/internal/workload"
)

// benchTable builds a moderately sized table with a mix of encodings
// (TPC-H stand-in: discrete + continuous columns).
func benchTable(rows int) (*dataset.Dataset, *Table) {
	data := dataset.TPCHLike(rows, 7).Project(4).Normalize()
	return data, FromDataset(data, nil, 1024)
}

// builtTable is benchTable in the builder's physical order at the end-to-end
// benchmark's group size: the shape production tables have, sorted run columns
// ahead of a raw one.
func builtTable(rows int) (*dataset.Dataset, *Table) {
	data := dataset.TPCHLike(rows, 7).Project(4).Normalize()
	all := make([]int, rows)
	for i := range all {
		all[i] = i
	}
	return data, NewBuilder(data, 2048).Build(all)
}

func TestScannerSteadyStateAllocs(t *testing.T) {
	data, arrival := benchTable(20000)
	_, built := builtTable(20000) // spans narrow here: their scratch lives on the Scanner too
	q := data.Domain()
	q.Lo[0], q.Hi[0] = 0.2, 0.6
	q.Lo[1], q.Hi[1] = 0.1, 0.8
	q.Lo[2], q.Hi[2] = 0.1, 0.8
	for name, tab := range map[string]*Table{"arrival": arrival, "built": built} {
		sc := NewScanner()
		sc.Count(tab, q)
		sc.Scan(tab, q)
		if n := testing.AllocsPerRun(50, func() { sc.Count(tab, q) }); n != 0 {
			t.Errorf("%s: Count allocates %v/op in steady state, want 0", name, n)
		}
		if n := testing.AllocsPerRun(50, func() { sc.Scan(tab, q) }); n != 0 {
			t.Errorf("%s: Scan allocates %v/op in steady state, want 0", name, n)
		}
	}
}

// TestRunsLeadRaw: on the benchmark's table shape the run columns narrow the
// selection before a raw value is read. 500 seeded boxes against the naive
// oracle and the dataset; Count and Scan charge the same predicate bytes group
// by group; and in every group where an active RLE chunk rejects a run, an
// active raw chunk is charged for no more than the rows the runs left.
func TestRunsLeadRaw(t *testing.T) {
	data, tab := builtTable(24000)
	if c := tab.EncodingCounts(); c["rle"] == 0 || c["raw"] == 0 {
		t.Fatalf("the built table must hold run and raw chunks: %v", c)
	}
	dims := tab.Dims()
	rng := rand.New(rand.NewSource(22))
	pool := parbuild.New(0) // serial at -cpu 1, fanned out at -cpu 2
	sc := NewScanner()
	col := make([]float64, 2048)
	narrowed := 0
	for qi := 0; qi < 500; qi++ {
		q := data.Domain()
		for d := 0; d < dims; d++ {
			if rng.Intn(4) > 0 {
				a, b := rng.Float64(), rng.Float64()
				q.Lo[d], q.Hi[d] = min(a, b), max(a, b)
			}
		}
		want := data.CountInBox(q, nil)
		count := sc.Count(tab, q)
		_, scan := sc.Scan(tab, q)
		if naive := tab.CountNaive(q).Matched; count.Matched != want || scan.Matched != want || naive != want {
			t.Fatalf("q%d: count %d, scan %d, naive %d, dataset %d", qi, count.Matched, scan.Matched, naive, want)
		}
		if par := tab.CountParallel(q, pool, nil, sc); par != count {
			t.Fatalf("q%d: parallel %+v != serial %+v", qi, par, count)
		}
		for gi := range tab.groups {
			g := &tab.groups[gi]
			if g.stats.CanPrune(q) {
				continue
			}
			var cst, sst ScanStats
			counted := sc.scanGroup(g, q, false, &cst)
			sc.flat = sc.flat[:0]
			// What Scan reads beyond Count is the covered columns of the
			// rows it returns; the rest is predicate bytes.
			predicate := sc.scanGroup(g, q, true, &sst)
			// keep[i]: row i passes every active RLE predicate. bound: the
			// whole payload of every active chunk that is not raw.
			keep, bound, rawActive, rejected := make([]bool, g.rows), int64(0), int64(0), false
			for i := range keep {
				keep[i] = true
			}
			for d := 0; d < dims; d++ {
				c := &g.cols[d]
				switch {
				case g.stats.DimCovered(d, q):
					if sst.Matched > 0 {
						predicate -= c.valueBytes(sst.Matched)
					}
				case c.kind == colRaw:
					rawActive++
				default:
					bound += c.payloadBytes()
					if c.kind != colRLE {
						continue
					}
					c.decodeInto(col[:g.rows])
					for i, v := range col[:g.rows] {
						if v < q.Lo[d] || v > q.Hi[d] {
							keep[i], rejected = false, true
						}
					}
				}
			}
			if predicate != counted || sst.Matched != cst.Matched {
				t.Fatalf("q%d group %d: Scan charges %d predicate bytes for %d rows, Count %d for %d",
					qi, gi, predicate, sst.Matched, counted, cst.Matched)
			}
			if !rejected || rawActive == 0 {
				continue
			}
			narrowed++
			left := int64(0)
			for _, k := range keep {
				left += int64(b2i(k))
			}
			if counted > bound+rawActive*8*left {
				t.Fatalf("q%d group %d: read %d bytes; runs left %d of %d rows, so %d raw chunk(s) and %d bytes of other payload allow %d",
					qi, gi, counted, left, g.rows, rawActive, bound, bound+rawActive*8*left)
			}
		}
	}
	if narrowed < 100 {
		t.Fatalf("only %d groups had a run rejected ahead of a raw predicate: the boxes miss the case", narrowed)
	}
}

func TestCountParallelMatchesSerial(t *testing.T) {
	data, tab := benchTable(30000)
	w := workload.Uniform(data.Domain(), workload.Defaults(30, 9))
	var sp ScannerPool
	sc := NewScanner()
	for _, workers := range []int{1, 2, 4, 8} {
		pool := parbuild.New(workers)
		for _, q := range w.Boxes() {
			serial := sc.Count(tab, q)
			par := tab.CountParallel(q, pool, &sp, sc)
			if par != serial {
				t.Fatalf("workers=%d: parallel stats %+v != serial %+v", workers, par, serial)
			}
		}
	}
	// A nil pool and nil scanner pool must degrade cleanly.
	q := w.Boxes()[0]
	if got := tab.CountParallel(q, nil, nil, sc); got != sc.Count(tab, q) {
		t.Fatal("nil pool must fall back to the serial kernel")
	}
}

func TestEncodingCountsAndCompression(t *testing.T) {
	// Sorted discrete data: the sort dim RLE-encodes; encoded size must beat
	// the raw representation.
	n := 8000
	cols := [][]float64{make([]float64, n), make([]float64, n)}
	for i := 0; i < n; i++ {
		cols[0][i] = float64(i / 400) // 20 long runs
		cols[1][i] = float64(i%7) / 7 // 7 distinct values
	}
	data := dataset.MustNew([]string{"a", "b"}, cols)
	tab := FromDataset(data, nil, 1000)
	counts := tab.EncodingCounts()
	if counts["rle"] == 0 {
		t.Errorf("sorted runs must RLE-encode: %v", counts)
	}
	raw := int64(n) * 2 * 8
	if tab.EncodedBytes() >= raw {
		t.Errorf("encoded %d bytes >= raw %d", tab.EncodedBytes(), raw)
	}
	// The same census in bytes: one entry per encoding present, summing to
	// the table's encoded size.
	var sum int64
	byEnc := tab.EncodedBytesByEncoding()
	for enc, b := range byEnc {
		if counts[enc] == 0 || b <= 0 {
			t.Errorf("%d bytes under %q, which holds %d chunks", b, enc, counts[enc])
		}
		sum += b
	}
	if len(byEnc) != len(counts) || sum != tab.EncodedBytes() {
		t.Errorf("bytes by encoding %v sum to %d over %d encodings; table has %d bytes, %v", byEnc, sum, len(byEnc), tab.EncodedBytes(), counts)
	}
}

// TestScannerSelCapacityAcrossGroups: the kernels write a position before
// they know whether it survives, so the selection vector must hold a whole
// group before the first write — whatever the scanner last scanned. One
// scanner walks groups that shrink, grow and change shape, ending on the
// widest single write there is: an RLE first predicate whose one run covers a
// group larger than any before it.
func TestScannerSelCapacityAcrossGroups(t *testing.T) {
	table := func(rows, groupRows int, seed int64) (*Table, geom.Box) {
		data := fuzzDataset(seed, rows, 3)
		dom := data.Domain()
		q := dom.Clone()
		for d := range q.Lo {
			q.Lo[d] += 0.25 * (dom.Hi[d] - dom.Lo[d])
		}
		return FromDataset(data, nil, groupRows), q
	}
	// One RLE run over the whole group under an envelope wider than its
	// value (a decoded table's statistics may be loose), so the predicate is
	// neither pruned nor covered and the one run keeps the whole-group span.
	const wide = 5000
	raw := make([]float64, wide)
	for i := range raw {
		raw[i] = float64(i % 10)
	}
	oneRun := &Table{names: []string{"a", "b"}, rows: wide, groups: []rowGroup{newRowGroup(
		[]column{
			{kind: colRLE, n: wide, runVals: []float64{5}, runLens: []uint32{wide}},
			rawColumn(raw, &encodeScratch{}),
		}, wide, sma.Aggregates{Count: wide, Min: []float64{0, 0}, Max: []float64{10, 9}, Sum: []float64{5 * wide, 4.5 * wide}},
	)}}
	oneRunQ := geom.Box{Lo: geom.Point{4, 0}, Hi: geom.Point{6, 4.5}}

	sc := NewScanner()
	for _, step := range []struct {
		name            string
		rows, groupRows int
	}{
		{"7-row group", 7, 7},
		{"2048-row group", 2048, 2048},
		{"4096 rows in groups of 1000", 4096, 1000},
		{"1025 rows in groups of 1024", 1025, 1024},
	} {
		tab, q := table(step.rows, step.groupRows, int64(step.rows))
		if got, want := sc.Count(tab, q), tab.CountNaive(q); got.Matched != want.Matched {
			t.Fatalf("%s: matched %d, naive %d", step.name, got.Matched, want.Matched)
		}
		if _, got := sc.Scan(tab, q); got.Matched != tab.CountNaive(q).Matched {
			t.Fatalf("%s: scan matched %d, naive %d", step.name, got.Matched, tab.CountNaive(q).Matched)
		}
	}
	got, want := sc.Count(oneRun, oneRunQ), oneRun.CountNaive(oneRunQ)
	if got.Matched != want.Matched || got.Matched != wide/2 {
		t.Fatalf("one-run group: matched %d, naive %d, want %d", got.Matched, want.Matched, wide/2)
	}
	if got.ColsRLE != 1 || got.ColsRaw != 1 {
		t.Fatalf("one-run group must filter on the RLE column and refine on the raw one: %+v", got)
	}
}

// TestScanNaNBoundKeepsRunsFirst: refine has no RLE arm, so the order must put
// run chunks first whatever the estimate — a NaN bound makes every comparison
// on it false. Dimension 0 is dictionary-encoded and NaN-bounded, dimension 1
// is runs: sorted on the raw estimate alone the runs would come second.
func TestScanNaNBoundKeepsRunsFirst(t *testing.T) {
	const n = 2000
	cols := [][]float64{make([]float64, n), make([]float64, n), make([]float64, n)}
	for i := range cols[0] {
		cols[0][i] = float64(i*7%13) / 13
		cols[1][i] = float64(i / 100)
		cols[2][i] = float64(i*2654435761%100003) / 100003
	}
	tab := FromDataset(dataset.MustNew([]string{"dict", "runs", "raw"}, cols), nil, 500)
	if g := &tab.groups[0]; g.cols[0].kind != colDict || g.cols[1].kind != colRLE || g.cols[2].kind != colRaw {
		t.Fatalf("columns encoded as %v/%v/%v", g.cols[0].kind, g.cols[1].kind, g.cols[2].kind)
	}
	q := geom.Box{Lo: geom.Point{math.NaN(), 2, 0.1}, Hi: geom.Point{0.9, 17, 0.8}}
	// A dictionary probe reads a NaN lower bound as no lower bound.
	ref := q.Clone()
	ref.Lo[0] = math.Inf(-1)
	sc := NewScanner()
	count, want := sc.Count(tab, q), tab.CountNaive(ref).Matched
	if _, scan := sc.Scan(tab, q); scan.Matched != want || count.Matched != want || want == 0 {
		t.Fatalf("count %d, scan %d, want %d", count.Matched, scan.Matched, want)
	}
	if count.ColsRLE == 0 {
		t.Fatalf("the run chunks were not evaluated: %+v", count)
	}
}

// rawColumn encodes vals as a raw chunk, whatever encoding would be smaller.
func rawColumn(vals []float64, sc *encodeScratch) column {
	sc.offs = sc.offs[:0]
	lo, hi := uint64(math.MaxUint64), uint64(0)
	for _, v := range vals {
		k := orderKey(v)
		sc.offs = append(sc.offs, k)
		lo, hi = min(lo, k), max(hi, k)
	}
	return sc.rawChunk(min(lo, hi), hi)
}

// descents is the specification of column.pieces: 0, then every position whose
// order key is below the one before — so +0 after -0 is no descent but -0 after
// +0 is one, and a NaN extends the piece it ends (a negative NaN, whose key is
// the least, starts one).
func descents(vals []float64) []int32 {
	out := []int32{0}
	for i := 1; i < len(vals); i++ {
		if orderKey(vals[i]) < orderKey(vals[i-1]) {
			out = append(out, int32(i))
		}
	}
	return out
}

// TestNarrowSearchesWhatTheSweepFinds is the property the searching narrow
// stands on: for raw chunks in ascending pieces of every length — from values
// in no order, where a piece is a value or two, to one piece a chunk — holding
// duplicates, both zeros, infinities and NaNs, for any span list and any
// bounds (stored values, values between, infinities, NaN, lo > hi), it keeps
// exactly the positions the float comparisons lo <= v <= hi keep, as ascending
// merged spans, and charges width/8 bytes per offset compared: never more than
// the sweep of the same spans. The pieces are the chunk's every descent in key
// order, derived the same at build and at decode, and withheld only below
// minSearchRows values a piece.
func TestNarrowSearchesWhatTheSweepFinds(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	specials := []float64{math.NaN(), math.Float64frombits(math.Float64bits(math.NaN()) | 1<<63),
		math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1)}
	searched := 0
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(600)
		few := rng.Intn(3) == 0
		draw := func() float64 {
			switch {
			case rng.Intn(30) == 0:
				return specials[rng.Intn(len(specials))]
			case few:
				return float64(rng.Intn(6)) - 2
			default:
				return rng.NormFloat64()
			}
		}
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = draw()
		}
		// Ascending stretches of about pieceRows values; 1 leaves vals as drawn.
		if pieceRows := []int{1, 3, minSearchRows / 2, 2 * minSearchRows, 600}[trial%5]; pieceRows > 1 {
			for i := 0; i < n; {
				end := min(n, i+1+rng.Intn(2*pieceRows))
				slices.SortFunc(vals[i:end], func(x, y float64) int {
					if kx, ky := orderKey(x), orderKey(y); kx != ky {
						return 1 - 2*b2i(kx < ky)
					}
					return 0
				})
				i = end
			}
		}
		descents := descents(vals)
		var sc encodeScratch
		built := encodeColumn(vals, &sc)
		if built.kind == colRaw {
			if want := n >= len(descents)*minSearchRows; (built.pieces != nil) != want {
				t.Fatalf("trial %d: %d values in %d pieces: searchable %v, want %v", trial, n, len(descents), built.pieces != nil, want)
			}
			if built.pieces != nil && !slices.Equal(built.pieces, descents) {
				t.Fatalf("trial %d: pieces %v, descents at %v", trial, built.pieces, descents)
			}
		}
		// narrow takes any piece list that is the chunk's descents, however
		// short the pieces: below minSearchRows it tests them value by value.
		c := rawColumn(vals, &sc)
		c.pieces = descents

		var spans []span
		for pos := rng.Intn(20) * rng.Intn(2); pos < n; {
			hi := min(n, pos+1+rng.Intn(1+rng.Intn(200)))
			spans = append(spans, span{int32(pos), int32(hi)})
			pos = hi + rng.Intn(30)*rng.Intn(2) // sometimes adjacent
		}
		bound := func() float64 {
			switch rng.Intn(4) {
			case 0:
				return vals[rng.Intn(n)]
			case 1:
				return math.Nextafter(vals[rng.Intn(n)], float64(rng.Intn(3)-1)*math.Inf(1))
			default:
				return draw()
			}
		}
		lo, hi := bound(), bound()
		if lo > hi && rng.Intn(4) > 0 {
			lo, hi = hi, lo
		}

		var want []int32
		for _, sp := range spans {
			for i := sp.lo; i < sp.hi; i++ {
				if vals[i] >= lo && vals[i] <= hi {
					want = append(want, i)
				}
			}
		}
		out, bytes := c.narrow(lo, hi, spans, nil)
		for i, sp := range out {
			if sp.lo >= sp.hi || i > 0 && out[i-1].hi >= sp.lo {
				t.Fatalf("trial %d: spans %v not ascending, non-empty and merged", trial, out)
			}
		}
		if got := expand(out, nil); !slices.Equal(got, want) {
			t.Fatalf("trial %d: [%v, %v] over %v of %v (pieces at %v):\nsearch keeps %v\nsweep keeps  %v", trial, lo, hi, spans, vals, descents, got, want)
		}
		c.pieces = nil
		swept, sweepBytes := c.countSpans(lo, hi, spans)
		if swept != len(want) || bytes > sweepBytes || bytes < 0 {
			t.Fatalf("trial %d: search charged %d bytes for %d rows, the sweep %d for %d", trial, bytes, len(want), sweepBytes, swept)
		}
		if bytes < sweepBytes {
			searched++
		}
	}
	if searched < 1000 {
		t.Fatalf("only %d of 3000 trials compared fewer values than a sweep: the chunks miss the case", searched)
	}
}

// TestPiecesSurviveTheCodec: pieces are not in a payload, so a decoded table
// derives them again — the same ones, chunk for chunk, and the same answers at
// the same charge; a table whose rows merely arrive sorted has them too.
func TestPiecesSurviveTheCodec(t *testing.T) {
	data := fuzzDataset(6|4<<3, 3000, 2) // ascending raw, values in no order
	tab := FromDataset(data, nil, 700)
	var buf bytes.Buffer
	if err := tab.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for gi := range tab.groups {
		for d := range tab.groups[gi].cols {
			built, got := &tab.groups[gi].cols[d], &decoded.groups[gi].cols[d]
			if built.kind != colRaw || (built.pieces != nil) != (d == 0) {
				t.Fatalf("group %d column %d: %v chunk, searchable %v", gi, d, built.kind, built.pieces != nil)
			}
			if !slices.Equal(got.pieces, built.pieces) {
				t.Fatalf("group %d column %d: decoded pieces %v, built %v", gi, d, got.pieces, built.pieces)
			}
		}
	}
	q := data.Domain()
	q.Lo[0], q.Hi[0] = data.At(400, 0), data.At(2500, 0)
	sc := NewScanner()
	st := sc.Count(tab, q)
	if again := sc.Count(decoded, q); again != st || st.Matched != data.CountInBox(q, nil) {
		t.Fatalf("built table counts %+v, decoded %+v, dataset %d", st, again, data.CountInBox(q, nil))
	}
	if sweep := int64(8 * 700 * st.GroupsRead); st.GroupsRead == 0 || st.BytesRead*4 > sweep {
		t.Fatalf("%d groups of sorted values read %d bytes; a sweep reads about %d", st.GroupsRead, st.BytesRead, sweep)
	}
}

// TestRawWidthsSurviveTheCodec: raw chunks at widths 0, 1, 57 and 64 — one
// key, the two zeros (adjacent keys), the widest width one 8-byte load reaches,
// and a range of 58 bits, stored at 64 beside NaNs of both signs, ±0 and ±Inf
// — decode bit for bit before and after a PAWC round trip, with the same
// pieces; every kernel keeps, on both tables, exactly the positions the float
// comparisons lo <= v <= hi keep (so -0 == +0 and a NaN never matches), for
// bounds at stored values, one ulp off them, ±0, ±Inf, NaN and lo > hi; and
// whole-table counts and scans agree between the two tables to the byte.
func TestRawWidthsSurviveTheCodec(t *testing.T) {
	const rows, groupRows = 600, 150
	rng := rand.New(rand.NewSource(29))
	negNaN := math.Float64frombits(math.Float64bits(math.NaN()) | 1<<63)
	specials := []float64{math.NaN(), negNaN, math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1)}
	widths := []uint8{0, 1, 57, 64, 64}
	draw := []func(i int) float64{
		func(int) float64 { return -1.5 },
		func(int) float64 { return math.Copysign(0, float64(rng.Intn(2)*2-1)) },
		func(i int) float64 { return []float64{1, 0x1p16}[i%2] },   // the ends: keys 2⁵⁶ apart
		func(int) float64 { return math.Exp2(rng.Float64() * 40) }, // ≥ 32 binades: 58 bits
		func(int) float64 { return rng.NormFloat64() },
	}
	cols := make([][]float64, len(draw))
	for d := range cols {
		cols[d] = make([]float64, rows)
		for i := range cols[d] {
			cols[d][i] = draw[d](i)
		}
	}
	for g := 0; g < rows; g += groupRows {
		for i := g + 2; i < g+groupRows; i++ {
			cols[2][i] = 1 + rng.Float64()*(0x1p16-1) // between the ends
		}
		copy(cols[4][g:], specials) // every special in every group
		if g/groupRows%2 == 0 {
			for _, col := range cols[2:] { // ascending in key order: searched
				slices.SortFunc(col[g:g+groupRows], func(x, y float64) int { return cmp.Compare(orderKey(x), orderKey(y)) })
			}
		}
	}
	names := []string{"w0", "w1", "w57", "w58", "w64"}
	data := dataset.MustNew(names, cols)
	tab := &Table{names: names, rows: rows}
	var sc encodeScratch
	for g := 0; g < rows; g += groupRows {
		idx := make([]int, groupRows)
		chunks := make([]column, len(cols))
		for d := range chunks {
			chunks[d] = rawColumn(cols[d][g:g+groupRows], &sc)
		}
		for i := range idx {
			idx[i] = g + i
		}
		tab.groups = append(tab.groups, newRowGroup(chunks, groupRows, sma.Compute(data, idx)))
	}
	var buf bytes.Buffer
	if err := tab.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, groupRows)
	for gi := range tab.groups {
		for d := range cols {
			for _, c := range []*column{&tab.groups[gi].cols[d], &decoded.groups[gi].cols[d]} {
				if c.kind != colRaw || c.width != widths[d] {
					t.Fatalf("group %d column %s: %v chunk at %d bits, want raw at %d", gi, names[d], c.kind, c.width, widths[d])
				}
				if d >= 2 && (c.pieces != nil) != (gi%2 == 0) {
					t.Fatalf("group %d column %s: searchable %v", gi, names[d], c.pieces != nil)
				}
				c.decodeInto(got)
				for i, v := range cols[d][gi*groupRows : (gi+1)*groupRows] {
					if math.Float64bits(got[i]) != math.Float64bits(v) {
						t.Fatalf("group %d column %s value %d: %v (%#x), want %v (%#x)", gi, names[d], i, got[i], math.Float64bits(got[i]), v, math.Float64bits(v))
					}
				}
			}
			if !slices.Equal(tab.groups[gi].cols[d].pieces, decoded.groups[gi].cols[d].pieces) {
				t.Fatalf("group %d column %s: pieces differ after the round trip", gi, names[d])
			}
		}
	}

	bound := func(vals []float64) float64 {
		switch v := vals[rng.Intn(len(vals))]; rng.Intn(4) {
		case 0:
			return specials[rng.Intn(len(specials))]
		case 1:
			return math.Nextafter(v, float64(rng.Intn(3)-1)*math.Inf(1))
		default:
			return v
		}
	}
	sel := make([]int32, groupRows)
	for trial := 0; trial < 4000; trial++ {
		gi, d := rng.Intn(len(tab.groups)), rng.Intn(len(cols))
		vals := cols[d][gi*groupRows : (gi+1)*groupRows]
		lo, hi := bound(vals), bound(vals)
		if lo > hi && rng.Intn(4) > 0 {
			lo, hi = hi, lo
		}
		spans := []span{{0, groupRows}}
		if rng.Intn(2) == 0 {
			a := int32(rng.Intn(groupRows))
			spans = []span{{a / 2, a}, {a + 1, min(a+1+int32(rng.Intn(groupRows)), groupRows)}}
		}
		var want []int32
		for _, sp := range spans {
			for i := sp.lo; i < sp.hi; i++ {
				if vals[i] >= lo && vals[i] <= hi {
					want = append(want, i)
				}
			}
		}
		for _, c := range []*column{&tab.groups[gi].cols[d], &decoded.groups[gi].cols[d]} {
			n, swept := c.countSpans(lo, hi, spans)
			picked, selBytes := c.selectSpans(lo, hi, spans, sel)
			if n != len(want) || !slices.Equal(picked, want) || selBytes != swept {
				t.Fatalf("%s [%v, %v] over %v: count %d, select %v (%d/%d bytes), want %v", names[d], lo, hi, spans, n, picked, selBytes, swept, want)
			}
			if refined, _ := c.refine(lo, hi, expand(spans, sel)); !slices.Equal(refined, want) {
				t.Fatalf("%s [%v, %v] over %v: refine keeps %v, want %v", names[d], lo, hi, spans, refined, want)
			}
			if c.pieces != nil {
				out, searched := c.narrow(lo, hi, spans, nil)
				if kept := expand(out, nil); !slices.Equal(kept, want) || searched > swept {
					t.Fatalf("%s [%v, %v] over %v: narrow keeps %v for %d bytes, want %v for at most %d", names[d], lo, hi, spans, kept, searched, want, swept)
				}
			}
		}
	}

	scanner := NewScanner()
	for trial := 0; trial < 300; trial++ {
		q := data.Domain()
		for d := range cols {
			if rng.Intn(2) == 0 {
				q.Lo[d], q.Hi[d] = bound(cols[d]), bound(cols[d])
			}
		}
		count := scanner.Count(tab, q)
		if again := scanner.Count(decoded, q); again != count || count.BytesRead+count.BytesSkipped != tab.EncodedBytes() {
			t.Fatalf("box %v: built table counts %+v, decoded %+v, of %d bytes", q, count, again, tab.EncodedBytes())
		}
		flat, scan := scanner.Scan(tab, q)
		flat = slices.Clone(flat)
		if again, st := scanner.Scan(decoded, q); st != scan || scan.Matched != count.Matched ||
			!slices.EqualFunc(flat, again, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
			t.Fatalf("box %v: built table scans %+v, decoded %+v", q, scan, st)
		}
	}
}
