package colstore

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"

	"paw/internal/dataset"
	"paw/internal/geom"
)

// goldenMix is a stateless stand-in for a seeded generator (splitmix64's
// finalizer over the row and column index): the golden table must be the same
// bits under any Go release, which a math/rand stream does not promise.
func goldenMix(i, col int) uint64 {
	z := uint64(i)*0x9E3779B97F4A7C15 + uint64(col+1)*0xD1B54A32D192ED03
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// Columns of the golden table, one per physical encoding shape.
const (
	gRaw   = iota // ~all-distinct fractions: raw
	gDict3        // 7 distinct fractions: dictionary, ranks at 3 bits
	gDict9        // 300 distinct fractions: dictionary, ranks at 9 bits
	gRLE          // runs of 40 equal fractions, run values in no order: RLE
	gFOR0         // one value: frame of reference at 0 bits
	gFOR13        // base + 13-bit integers: deltas straddle packed words
	gFOR32        // base + 32-bit integers: the widest frame of reference
	gDims
)

const (
	goldenGroupRows = 1024
	goldenRows      = 4*goldenGroupRows + 37 // a short last group
)

func goldenTable(t *testing.T) (*dataset.Dataset, *Table) {
	t.Helper()
	cols := make([][]float64, gDims)
	for d := range cols {
		cols[d] = make([]float64, goldenRows)
	}
	for i := 0; i < goldenRows; i++ {
		cols[gRaw][i] = float64(goldenMix(i, gRaw)>>11) / (1 << 53)
		cols[gDict3][i] = float64(goldenMix(i, gDict3)%7) / 7
		cols[gDict9][i] = float64(goldenMix(i, gDict9)%300) / 301
		cols[gRLE][i] = float64(goldenMix(i/40, gRLE)%23) / 23
		cols[gFOR0][i] = 42.5
		cols[gFOR13][i] = 1000 + float64(goldenMix(i, gFOR13)%(1<<13))
		cols[gFOR32][i] = -7 + float64(goldenMix(i, gFOR32)%(1<<32))
	}
	names := []string{"raw", "dict3", "dict9", "rle", "for0", "for13", "for32"}
	data := dataset.MustNew(names, cols)
	tab := FromDataset(data, nil, goldenGroupRows)

	// The table must hold what the boxes below are aimed at.
	g := &tab.groups[0]
	for d, want := range []colKind{colRaw, colDict, colDict, colRLE, colFOR, colFOR, colFOR} {
		if g.cols[d].kind != want {
			t.Fatalf("golden column %s encoded as %v, want %v", names[d], g.cols[d].kind, want)
		}
	}
	if g.cols[gDict3].width != 3 || g.cols[gDict9].width != 9 {
		t.Fatalf("golden dictionary widths %d/%d, want 3/9", g.cols[gDict3].width, g.cols[gDict9].width)
	}
	if g.cols[gFOR0].width != 0 || g.cols[gFOR13].width != 13 || g.cols[gFOR32].width != 32 {
		t.Fatalf("golden FOR widths %d/%d/%d, want 0/13/32",
			g.cols[gFOR0].width, g.cols[gFOR13].width, g.cols[gFOR32].width)
	}
	if last := tab.groups[len(tab.groups)-1].rows; last != 37 {
		t.Fatalf("golden last group has %d rows, want 37", last)
	}
	return data, tab
}

// Columns of the built golden table: the shape the builder's tables have on
// the TPC-H stand-in, two run keys ahead of columns that cannot be.
const (
	bPrice = iota // ~all-distinct fractions: raw, the tail wherever it is widest
	bK7           // 7 values: a run key
	bK5           // 5 values: a run key
	bWide         // 300 values in a tenth of a domain two outliers stretch: dictionary, the tail of the outliers' tiles
	bDims
)

// builtGoldenTable is the golden table of the searching narrow: goldenRows rows
// in the builder's order. In the three tiles where price is the tail its raw
// chunk is ascending inside every (k7, k5) tuple and carries pieces; in the
// two that hold an outlier of wide, wide is the tail and price is in no order
// — in the first wide is a dictionary chunk, whose ranks ascend with its
// values, so it carries pieces and is searched too, and the last, 37 rows in
// four tuples, is too short to search.
func builtGoldenTable(t *testing.T) (*dataset.Dataset, *Table) {
	t.Helper()
	cols := make([][]float64, bDims)
	for d := range cols {
		cols[d] = make([]float64, goldenRows)
	}
	for i := 0; i < goldenRows; i++ {
		cols[bPrice][i] = float64(goldenMix(i, gRaw)>>11) / (1 << 53)
		cols[bK7][i] = float64(goldenMix(i, gDict3)%7) / 7
		cols[bK5][i] = float64(goldenMix(i, gRLE)%5) / 5
		cols[bWide][i] = 0.45 + float64(goldenMix(i, gDict9)%300)/3000
	}
	cols[bWide][0], cols[bWide][1] = 0, 1
	data := dataset.MustNew([]string{"price", "k7", "k5", "wide"}, cols)
	all := make([]int, goldenRows)
	for i := range all {
		all[i] = i
	}
	tab := NewBuilder(data, data.Domain(), goldenGroupRows).Build(all, nil)
	var searchPrice, searchWide []int
	for gi := range tab.groups {
		g := &tab.groups[gi]
		k7, wide := colRLE, colDict
		if gi == len(tab.groups)-1 {
			// 37 rows: four ranks pack smaller than four runs, and 37 values
			// smaller than their dictionary.
			k7, wide = colDict, colRaw
		}
		if g.cols[bPrice].kind != colRaw || g.cols[bK7].kind != k7 || g.cols[bWide].kind != wide {
			t.Fatalf("built golden group %d encoded as %v/%v/%v/%v", gi, g.cols[0].kind, g.cols[1].kind, g.cols[2].kind, g.cols[3].kind)
		}
		if g.cols[bPrice].pieces != nil {
			searchPrice = append(searchPrice, gi)
		}
		if g.cols[bWide].pieces != nil {
			searchWide = append(searchWide, gi)
		}
	}
	if !slices.Equal(searchPrice, []int{1, 2, 3}) || !slices.Equal(searchWide, []int{0}) {
		t.Fatalf("built golden groups %v have a searchable price chunk and %v a searchable wide one, want 1 to 3 and 0", searchPrice, searchWide)
	}
	return data, tab
}

// goldenStats is ScanStats in the order the literals below are written:
// matched, read, skipped, groups read/skipped, cols raw/dict/rle/for.
func goldenStats(matched int, read, skipped int64, gRead, gSkipped, raw, dict, rle, fr int) ScanStats {
	return ScanStats{
		Matched: matched, BytesRead: read, BytesSkipped: skipped,
		GroupsRead: gRead, GroupsSkipped: gSkipped,
		ColsRaw: raw, ColsDict: dict, ColsRLE: rle, ColsFOR: fr,
	}
}

func goldenLiteral(st ScanStats) string {
	return fmt.Sprintf("goldenStats(%d, %d, %d, %d, %d, %d, %d, %d, %d)",
		st.Matched, st.BytesRead, st.BytesSkipped,
		st.GroupsRead, st.GroupsSkipped, st.ColsRaw, st.ColsDict, st.ColsRLE, st.ColsFOR)
}

// TestScanBytesGolden pins the kernels' whole accounting — not only the match
// count and the BytesRead + BytesSkipped identity the differential fuzzer
// checks, but the exact bytes every arm reports touched — on one table holding
// every encoding shape. A kernel change must reproduce the literals; they are
// regenerated only when the accounting contract, the evaluation order or the
// stored format is itself what a PR changes — never to make a kernel pass
// (TESTING.md) — and then beside the literals they replace.
//
// Every case carries the count PAWC v4 read (was; v3 stored the same column
// chunks) and the count PAWC v5 reads beside it (now), held to the rule
// checkGoldenCases states.
func TestScanBytesGolden(t *testing.T) {
	data, tab := goldenTable(t)
	dom := data.Domain()
	// mid returns the full-domain box narrowed on dimension d to the
	// fractions [a, b] of its extent.
	mid := func(q geom.Box, d int, a, b float64) geom.Box {
		q = q.Clone()
		span := dom.Hi[d] - dom.Lo[d]
		q.Lo[d], q.Hi[d] = dom.Lo[d]+a*span, dom.Lo[d]+b*span
		return q
	}
	// first makes d the only active predicate (p ≈ ½ over the whole group);
	// refining adds a narrower predicate on lead; the cheaper chunk of the two
	// leads.
	first := func(d int) geom.Box { return mid(dom, d, 0.25, 0.75) }
	refining := func(d, lead int) geom.Box { return mid(mid(dom, lead, 0.3, 0.7), d, 0.25, 0.75) }
	empty := dom.Clone()
	empty.Lo[gRaw], empty.Hi[gRaw] = dom.Hi[gRaw]+1, dom.Hi[gRaw]+2
	row := data.Point(2077)
	// between keeps d's envelope cut but holds none of its values.
	between := func(d int, lo, hi float64) geom.Box {
		q := dom.Clone()
		q.Lo[d], q.Hi[d] = lo, hi
		return q
	}

	// onRow pins the raw column to one stored value. At estimate 0 it would
	// lead a most-selective-first order; the cost order puts it last, and it is
	// not reached.
	onRow := func(q geom.Box) geom.Box {
		q.Lo[gRaw], q.Hi[gRaw] = row[gRaw], row[gRaw]
		return q
	}

	cases := []goldenCase{
		{"empty", empty,
			goldenStats(0, 0, 75830, 0, 5, 0, 0, 0, 0),
			goldenStats(0, 0, 69670, 0, 5, 0, 0, 0, 0)},
		{"full-domain", dom,
			goldenStats(4133, 0, 75830, 5, 0, 0, 0, 0, 0),
			goldenStats(4133, 0, 69670, 5, 0, 0, 0, 0, 0)},
		{"point-on-a-row", geom.Box{Lo: row, Hi: row},
			goldenStats(1, 4049, 71781, 4, 1, 1, 5, 4, 5),
			goldenStats(1, 3924, 65746, 4, 1, 1, 5, 4, 5)},
		{"between-dict3-values", between(gDict3, 0.30, 0.40),
			goldenStats(0, 300, 75530, 5, 0, 0, 5, 0, 0),
			goldenStats(0, 300, 69370, 5, 0, 0, 5, 0, 0)},
		{"between-for13-values", between(gFOR13, 2000.25, 2000.75),
			goldenStats(0, 45, 75785, 5, 0, 0, 0, 0, 5),
			goldenStats(0, 45, 69625, 5, 0, 0, 0, 0, 5)},
		{"between-dict3-refining", onRow(between(gDict3, 0.30, 0.40)),
			goldenStats(0, 300, 75530, 5, 0, 0, 5, 0, 0),
			goldenStats(0, 300, 69370, 5, 0, 0, 5, 0, 0)},
		{"between-for13-refining", onRow(between(gFOR13, 2000.25, 2000.75)),
			goldenStats(0, 45, 75785, 5, 0, 0, 0, 0, 5),
			goldenStats(0, 45, 69625, 5, 0, 0, 0, 0, 5)},
		{"raw-first", first(gRaw),
			goldenStats(2064, 28972, 46858, 5, 0, 5, 0, 0, 0),
			goldenStats(2064, 28972, 40698, 5, 0, 5, 0, 0, 0)},
		{"raw-refining", refining(gRaw, gDict3),
			goldenStats(885, 16646, 59184, 5, 0, 5, 5, 0, 0),
			goldenStats(885, 14063, 55607, 5, 0, 5, 5, 0, 0)},
		{"dict3-first", first(gDict3),
			goldenStats(1745, 4433, 71397, 5, 0, 0, 5, 0, 0),
			goldenStats(1745, 1850, 67820, 5, 0, 0, 5, 0, 0)},
		{"dict3-refining", refining(gDict3, gRaw),
			goldenStats(706, 16646, 59184, 5, 0, 5, 5, 0, 0),
			goldenStats(706, 14063, 55607, 5, 0, 5, 5, 0, 0)},
		{"dict9-first", first(gDict9),
			goldenStats(2063, 17761, 58069, 5, 0, 1, 4, 0, 0),
			goldenStats(2063, 14177, 55493, 5, 0, 1, 4, 0, 0)},
		{"dict9-refining", refining(gDict9, gRaw),
			goldenStats(846, 32107, 43723, 5, 0, 6, 4, 0, 0),
			goldenStats(846, 28523, 41147, 5, 0, 6, 4, 0, 0)},
		{"rle-first", first(gRLE),
			goldenStats(2160, 1252, 74578, 4, 1, 0, 0, 4, 0),
			goldenStats(2160, 1252, 68418, 4, 1, 0, 0, 4, 0)},
		{"rle-refining", refining(gRLE, gRaw),
			goldenStats(866, 16372, 59458, 4, 1, 4, 0, 4, 0),
			goldenStats(866, 16372, 53298, 4, 1, 4, 0, 4, 0)},
		{"rle-refining-sparse", mid(first(gRLE), gRaw, 0.3, 0.31),
			goldenStats(22, 16372, 59458, 4, 1, 4, 0, 4, 0),
			goldenStats(22, 16372, 53298, 4, 1, 4, 0, 4, 0)},
		{"for13-first", first(gFOR13),
			goldenStats(2062, 6762, 69068, 5, 0, 0, 0, 0, 5),
			goldenStats(2062, 6762, 62908, 5, 0, 0, 0, 0, 5)},
		{"for13-refining", refining(gFOR13, gRaw),
			goldenStats(828, 21194, 54636, 5, 0, 5, 0, 0, 5),
			goldenStats(828, 21194, 48476, 5, 0, 5, 0, 0, 5)},
		{"for32-first", first(gFOR32),
			goldenStats(2039, 16577, 59253, 5, 0, 0, 0, 0, 5),
			goldenStats(2039, 16577, 53093, 5, 0, 0, 0, 0, 5)},
		{"for32-refining", refining(gFOR32, gRaw),
			goldenStats(831, 30848, 44982, 5, 0, 5, 0, 0, 5),
			goldenStats(831, 30848, 38822, 5, 0, 5, 0, 0, 5)},
	}
	checkGoldenCases(t, data, tab, cases)
}

// goldenCase is one box with the count recorded for it under PAWC v4 (was)
// and under PAWC v5 (now).
type goldenCase struct {
	name     string
	q        geom.Box
	was, now ScanStats
}

// checkGoldenCases runs every case on tab and holds its PAWC v5 literal to the
// rule it was recorded under. Packing dictionary ranks, and searching every
// chunk in ascending pieces, changes what a touch is charged, never what a
// scan finds: Matched and the groups read and skipped are v4's, BytesRead +
// BytesSkipped is the table's EncodedBytes, and BytesRead is no higher than
// v4's.
func checkGoldenCases(t *testing.T, data *dataset.Dataset, tab *Table, cases []goldenCase) {
	t.Helper()
	sc := NewScanner()
	for _, c := range cases {
		was, now := c.was, c.now
		if now.Matched != was.Matched || now.GroupsRead != was.GroupsRead || now.GroupsSkipped != was.GroupsSkipped ||
			now.BytesRead+now.BytesSkipped != tab.EncodedBytes() {
			t.Errorf("%s: v5 literal %+v changes more than what a touch is charged (v4 %+v, %d bytes stored)", c.name, now, was, tab.EncodedBytes())
		}
		if now.BytesRead > was.BytesRead {
			t.Errorf("%s: v5 literal reads %d bytes, v4 read %d", c.name, now.BytesRead, was.BytesRead)
		}
		count := sc.Count(tab, c.q)
		if count != now {
			t.Errorf("%s: accounting moved; got\n\t\t\t%s},", c.name, goldenLiteral(count))
		}
		// The oracles read a NaN bound as no bound, the raw kernels as one
		// nothing meets: for such a box the literal alone pins the match count.
		want := data.CountInBox(c.q, nil)
		if slices.ContainsFunc(c.q.Lo, math.IsNaN) {
			want = now.Matched
		}
		if count.Matched != want {
			t.Errorf("%s: matched %d, dataset says %d", c.name, count.Matched, want)
		}
	}
}

// TestSearchBytesGolden is TestScanBytesGolden for the searching narrow, on the
// built golden table: was is what a count read under PAWC v4, where only raw
// chunks were searched, and now what it reads under v5, where the wide
// dictionary tail is searched too, under the same rule. (What the search read
// against the sweep it replaced — 33 064 → 20 024 bytes for tail-only under
// PAWC v2 — is in TESTING.md.)
func TestSearchBytesGolden(t *testing.T) {
	data, tab := builtGoldenTable(t)
	dom := data.Domain()
	mid := func(q geom.Box, d int, a, b float64) geom.Box {
		q = q.Clone()
		span := dom.Hi[d] - dom.Lo[d]
		q.Lo[d], q.Hi[d] = dom.Lo[d]+a*span, dom.Lo[d]+b*span
		return q
	}
	price := mid(dom, bPrice, 0.25, 0.75)
	// A price no row holds, one ulp above one a row of a searchable group does.
	c := &tab.groups[1].cols[bPrice]
	stored := c.valueOf(unpack(c.packed, 500*uint(c.width), c.mask()))
	gap := dom.Clone()
	gap.Lo[bPrice], gap.Hi[bPrice] = math.Nextafter(stored, 2), math.Nextafter(stored, 2)
	nan := price.Clone()
	nan.Lo[bPrice] = math.NaN()
	checkGoldenCases(t, data, tab, []goldenCase{
		{"tail-only", price,
			goldenStats(2064, 17069, 30171, 5, 0, 5, 0, 0, 0),
			goldenStats(2064, 11381, 32350, 5, 0, 5, 0, 0, 0)},
		{"runs-then-tail", mid(price, bK7, 0.3, 0.7),
			goldenStats(885, 8871, 38369, 5, 0, 5, 0, 5, 0),
			goldenStats(885, 6469, 37262, 5, 0, 5, 1, 4, 0)},
		{"tail-then-dictionary", mid(price, bWide, 0.47, 0.52),
			goldenStats(1066, 25854, 21386, 5, 0, 6, 4, 0, 0),
			goldenStats(1066, 19359, 24372, 5, 0, 6, 4, 0, 0)},
		{"between-tail-values", gap,
			goldenStats(0, 9361, 37879, 2, 3, 2, 0, 0, 0),
			goldenStats(0, 9340, 34391, 2, 3, 2, 0, 0, 0)},
		{"nan-bound", nan,
			goldenStats(0, 45, 47195, 5, 0, 5, 0, 0, 0),
			goldenStats(0, 45, 43686, 5, 0, 5, 0, 0, 0)},
	})
}

// TestStoredBytesGolden pins what is stored: the PAWC encoding of the golden
// table in arrival order and in the builder's order, both recorded with PAWC
// v5. A change to how a scan evaluates a group — the order of its predicates,
// the form of its selection, what a chunk derives from its values — must leave
// both alone; a change that moves them has changed the chooser, the builder or
// the format. v3 moved them by packing raw values and FOR deltas to the byte:
// 80 925 → 76 835 bytes in arrival order and 79 747 → 74 866 built, where every
// dictionary and run chunk kept its encoding and bytes (v2 stored dict 17 730,
// FOR 23 391, raw 33 064, RLE 4 560). v4 moved them by dropping the zone-count
// word and each group's SMA count and sums, and no column byte: 76 835 →
// 76 511 and 74 866 → 74 542, 4 + 5 × 64 bytes each (five groups of seven
// columns). v5 moved them by packing dictionary ranks at the bits the highest
// needs, where v4 stored a byte or two a code: 76 511 → 70 341 in arrival
// order (dict 21 889 → 15 757; the 37-row group's run chunk, 28 bytes, is now
// a 27-byte dictionary) and 74 542 → 69 932 built (dict 17 730 → 17 479, and
// five of the nine run chunks, 4 352 bytes, are now dictionaries), one byte
// of each in the header, where the column dict16 is now named dict9. (v4's
// size of a dictionary chunk left out the width byte it stored; v5's counts
// it.) Breaking the builder's ties on values, not source rows, moved the built
// table alone: 69 932 → 69 900 bytes (dict 17 479 → 17 447).
func TestStoredBytesGolden(t *testing.T) {
	data, arrival := goldenTable(t)
	all := make([]int, data.NumRows())
	for i := range all {
		all[i] = i
	}
	built := NewBuilder(data, data.Domain(), goldenGroupRows).Build(all, nil)
	for _, c := range []struct {
		name   string
		tab    *Table
		size   int
		digest string
	}{
		{"arrival", arrival, 70341, "12bb0f7d4a7b26573b6e4d1367b68e21528630a9bb2c2f6114af69f3f56a5cc3"},
		{"built", built, 69900, "3b450b392c14362dc930eb9911d495ada18b37cbae634f292bee797819ea43b9"},
	} {
		var buf bytes.Buffer
		if err := c.tab.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != c.digest || buf.Len() != c.size {
			t.Errorf("%s: %d encoded bytes hash to %s, want %d hashing to %s", c.name, buf.Len(), got, c.size, c.digest)
		}
	}
	want := map[string]int64{"dict": 17447, "for": 23384, "raw": 28190, "rle": 208}
	if got := built.EncodedBytesByEncoding(); !maps.Equal(got, want) {
		t.Errorf("built: stored bytes by encoding %v, want %v", got, want)
	}
}

// TestDecodeReencodesByteForByte: a recorded v5 payload and both encodings of
// the golden table (every encoding shape, a short last group) decode to
// tables that encode to the same bytes again, so the decoder is pinned as
// tightly as TestStoredBytesGolden pins the encoder.
func TestDecodeReencodesByteForByte(t *testing.T) {
	data, arrival := goldenTable(t)
	all := make([]int, data.NumRows())
	for i := range all {
		all[i] = i
	}
	payloads := [][]byte{unhex(t, recordedV5)}
	for _, tab := range []*Table{arrival, NewBuilder(data, data.Domain(), goldenGroupRows).Build(all, nil)} {
		var buf bytes.Buffer
		if err := tab.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, buf.Bytes())
	}
	for i, want := range payloads {
		tab, err := Decode(bytes.NewReader(want))
		if err != nil {
			t.Fatalf("payload %d: %v", i, err)
		}
		var again bytes.Buffer
		if err := tab.Encode(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), want) {
			t.Fatalf("payload %d (%d bytes) re-encodes to %d different bytes", i, len(want), again.Len())
		}
	}
}
