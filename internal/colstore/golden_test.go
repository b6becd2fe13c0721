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
	gRaw    = iota // ~all-distinct fractions: raw
	gDict8         // 7 distinct fractions: dictionary, 1-byte codes
	gDict16        // 300 distinct fractions: dictionary, 2-byte codes
	gRLE           // runs of 40 equal fractions, run values in no order: RLE
	gFOR0          // one value: frame of reference at 0 bits
	gFOR13         // base + 13-bit integers: deltas straddle packed words
	gFOR32         // base + 32-bit integers: the widest frame of reference
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
		cols[gDict8][i] = float64(goldenMix(i, gDict8)%7) / 7
		cols[gDict16][i] = float64(goldenMix(i, gDict16)%300) / 301
		cols[gRLE][i] = float64(goldenMix(i/40, gRLE)%23) / 23
		cols[gFOR0][i] = 42.5
		cols[gFOR13][i] = 1000 + float64(goldenMix(i, gFOR13)%(1<<13))
		cols[gFOR32][i] = -7 + float64(goldenMix(i, gFOR32)%(1<<32))
	}
	names := []string{"raw", "dict8", "dict16", "rle", "for0", "for13", "for32"}
	data := dataset.MustNew(names, cols)
	tab := FromDataset(data, nil, goldenGroupRows)

	// The table must hold what the boxes below are aimed at.
	g := &tab.groups[0]
	for d, want := range []colKind{colRaw, colDict, colDict, colRLE, colFOR, colFOR, colFOR} {
		if g.cols[d].kind != want {
			t.Fatalf("golden column %s encoded as %v, want %v", names[d], g.cols[d].kind, want)
		}
	}
	if g.cols[gDict8].codes8 == nil || g.cols[gDict16].codes16 == nil {
		t.Fatal("golden dictionary columns must hold one 1-byte and one 2-byte code vector")
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
// chunk is ascending inside every (k7, k5) tuple, and in the two full ones
// carries pieces (the last, 37 rows in four tuples, is too short to search);
// in the two that hold an outlier of wide, wide is the tail — a dictionary
// chunk, which stays on the linear kernels — and price is in no order.
func builtGoldenTable(t *testing.T) (*dataset.Dataset, *Table) {
	t.Helper()
	cols := make([][]float64, bDims)
	for d := range cols {
		cols[d] = make([]float64, goldenRows)
	}
	for i := 0; i < goldenRows; i++ {
		cols[bPrice][i] = float64(goldenMix(i, gRaw)>>11) / (1 << 53)
		cols[bK7][i] = float64(goldenMix(i, gDict8)%7) / 7
		cols[bK5][i] = float64(goldenMix(i, gRLE)%5) / 5
		cols[bWide][i] = 0.45 + float64(goldenMix(i, gDict16)%300)/3000
	}
	cols[bWide][0], cols[bWide][1] = 0, 1
	data := dataset.MustNew([]string{"price", "k7", "k5", "wide"}, cols)
	all := make([]int, goldenRows)
	for i := range all {
		all[i] = i
	}
	tab := NewBuilder(data, goldenGroupRows).Build(all)
	var searchable []int
	for gi := range tab.groups {
		g := &tab.groups[gi]
		wide := colDict
		if gi == len(tab.groups)-1 {
			wide = colRaw // 37 values pack smaller than their dictionary
		}
		if g.cols[bPrice].kind != colRaw || g.cols[bK7].kind != colRLE || g.cols[bWide].kind != wide {
			t.Fatalf("built golden group %d encoded as %v/%v/%v/%v", gi, g.cols[0].kind, g.cols[1].kind, g.cols[2].kind, g.cols[3].kind)
		}
		if g.cols[bPrice].pieces != nil {
			searchable = append(searchable, gi)
		}
	}
	if !slices.Equal(searchable, []int{1, 3}) {
		t.Fatalf("built golden groups %v have a searchable price chunk, want 1 and 3", searchable)
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
// Every case carries the count PAWC v2 read (the 5edd304 literals, and for
// the nine cases the runs-first order moved, that order's) and the count PAWC v3
// read beside it (now), held to the rule checkGoldenCases states. PAWC v4
// stores the same column chunks, so a scan reads what it read under v3.
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
			goldenStats(0, 0, 79920, 0, 5, 0, 0, 0, 0),
			goldenStats(0, 0, 75830, 0, 5, 0, 0, 0, 0)},
		{"full-domain", dom,
			goldenStats(4133, 0, 79920, 5, 0, 0, 0, 0, 0),
			goldenStats(4133, 0, 75830, 5, 0, 0, 0, 0, 0)},
		{"point-on-a-row", geom.Box{Lo: row, Hi: row},
			goldenStats(1, 4050, 75870, 4, 1, 1, 5, 4, 5),
			goldenStats(1, 4049, 71781, 4, 1, 1, 5, 4, 5)},
		{"between-dict8-values", between(gDict8, 0.30, 0.40),
			goldenStats(0, 300, 79620, 5, 0, 0, 5, 0, 0),
			goldenStats(0, 300, 75530, 5, 0, 0, 5, 0, 0)},
		{"between-for13-values", between(gFOR13, 2000.25, 2000.75),
			goldenStats(0, 45, 79875, 5, 0, 0, 0, 0, 5),
			goldenStats(0, 45, 75785, 5, 0, 0, 0, 0, 5)},
		{"between-dict8-refining", onRow(between(gDict8, 0.30, 0.40)),
			goldenStats(0, 300, 79620, 5, 0, 0, 5, 0, 0),
			goldenStats(0, 300, 75530, 5, 0, 0, 5, 0, 0)},
		{"between-for13-refining", onRow(between(gFOR13, 2000.25, 2000.75)),
			goldenStats(0, 45, 79875, 5, 0, 0, 0, 0, 5),
			goldenStats(0, 45, 75785, 5, 0, 0, 0, 0, 5)},
		{"raw-first", first(gRaw),
			goldenStats(2064, 33064, 46856, 5, 0, 5, 0, 0, 0),
			goldenStats(2064, 28972, 46858, 5, 0, 5, 0, 0, 0)},
		{"raw-refining", refining(gRaw, gDict8),
			goldenStats(885, 18393, 61527, 5, 0, 5, 5, 0, 0),
			goldenStats(885, 16646, 59184, 5, 0, 5, 5, 0, 0)},
		{"dict8-first", first(gDict8),
			goldenStats(1745, 4433, 75487, 5, 0, 0, 5, 0, 0),
			goldenStats(1745, 4433, 71397, 5, 0, 0, 5, 0, 0)},
		{"dict8-refining", refining(gDict8, gRaw),
			goldenStats(706, 18393, 61527, 5, 0, 5, 5, 0, 0),
			goldenStats(706, 16646, 59184, 5, 0, 5, 5, 0, 0)},
		{"dict16-first", first(gDict16),
			goldenStats(2063, 17752, 62168, 5, 0, 1, 4, 0, 0),
			goldenStats(2063, 17761, 58069, 5, 0, 1, 4, 0, 0)},
		{"dict16-refining", refining(gDict16, gRaw),
			goldenStats(846, 34184, 45736, 5, 0, 6, 4, 0, 0),
			goldenStats(846, 32107, 43723, 5, 0, 6, 4, 0, 0)},
		{"rle-first", first(gRLE),
			goldenStats(2160, 1252, 78668, 4, 1, 0, 0, 4, 0),
			goldenStats(2160, 1252, 74578, 4, 1, 0, 0, 4, 0)},
		{"rle-refining", refining(gRLE, gRaw),
			goldenStats(866, 18532, 61388, 4, 1, 4, 0, 4, 0),
			goldenStats(866, 16372, 59458, 4, 1, 4, 0, 4, 0)},
		{"rle-refining-sparse", mid(first(gRLE), gRaw, 0.3, 0.31),
			goldenStats(22, 18532, 61388, 4, 1, 4, 0, 4, 0),
			goldenStats(22, 16372, 59458, 4, 1, 4, 0, 4, 0)},
		{"for13-first", first(gFOR13),
			goldenStats(2062, 6765, 73155, 5, 0, 0, 0, 0, 5),
			goldenStats(2062, 6762, 69068, 5, 0, 0, 0, 0, 5)},
		{"for13-refining", refining(gFOR13, gRaw),
			goldenStats(828, 23261, 56659, 5, 0, 5, 0, 0, 5),
			goldenStats(828, 21194, 54636, 5, 0, 5, 0, 0, 5)},
		{"for32-first", first(gFOR32),
			goldenStats(2039, 16581, 63339, 5, 0, 0, 0, 0, 5),
			goldenStats(2039, 16577, 59253, 5, 0, 0, 0, 0, 5)},
		{"for32-refining", refining(gFOR32, gRaw),
			goldenStats(831, 32893, 47027, 5, 0, 5, 0, 0, 5),
			goldenStats(831, 30848, 44982, 5, 0, 5, 0, 0, 5)},
	}
	checkGoldenCases(t, data, tab, cases)
}

// goldenCase is one box with the count recorded for it under PAWC v2 (was)
// and under PAWC v3 (now).
type goldenCase struct {
	name     string
	q        geom.Box
	was, now ScanStats
}

// checkGoldenCases runs every case on tab and holds its PAWC v3 literal to the
// rule it was recorded under. Packing raw values changes what a touch is
// charged, never what a scan finds: Matched and the groups read and skipped
// are v2's, BytesRead + BytesSkipped is the table's EncodedBytes, and
// BytesRead is no higher than v2's but for the one thing v3 stores that v2 did
// not — a raw chunk's 9-byte header, once for each raw chunk read.
func checkGoldenCases(t *testing.T, data *dataset.Dataset, tab *Table, cases []goldenCase) {
	t.Helper()
	sc := NewScanner()
	for _, c := range cases {
		was, now := c.was, c.now
		if now.Matched != was.Matched || now.GroupsRead != was.GroupsRead || now.GroupsSkipped != was.GroupsSkipped ||
			now.BytesRead+now.BytesSkipped != tab.EncodedBytes() {
			t.Errorf("%s: v3 literal %+v changes more than what a touch is charged (v2 %+v, %d bytes stored)", c.name, now, was, tab.EncodedBytes())
		}
		if now.BytesRead > was.BytesRead+9*int64(now.ColsRaw) {
			t.Errorf("%s: v3 literal reads %d bytes, v2 read %d in %d raw chunks", c.name, now.BytesRead, was.BytesRead, now.ColsRaw)
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
// built golden table: was is what a count read under PAWC v2, 8 bytes a raw
// value compared, and now what it reads under v3 and v4, width/8 bytes an
// offset compared, under the same rule. (What the search read against the
// sweep it replaced — 33 064 → 20 024 bytes for tail-only — is in TESTING.md.)
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
			goldenStats(2064, 20024, 32134, 5, 0, 5, 0, 0, 0),
			goldenStats(2064, 17069, 30171, 5, 0, 5, 0, 0, 0)},
		{"runs-then-tail", mid(price, bK7, 0.3, 0.7),
			goldenStats(885, 10244, 41914, 5, 0, 5, 0, 5, 0),
			goldenStats(885, 8871, 38369, 5, 0, 5, 0, 5, 0)},
		{"tail-then-dictionary", mid(price, bWide, 0.47, 0.52),
			goldenStats(1066, 27807, 24351, 5, 0, 5, 5, 0, 0),
			goldenStats(1066, 25854, 21386, 5, 0, 6, 4, 0, 0)},
		{"between-tail-values", gap,
			goldenStats(0, 10688, 41470, 2, 3, 2, 0, 0, 0),
			goldenStats(0, 9361, 37879, 2, 3, 2, 0, 0, 0)},
		{"nan-bound", nan,
			goldenStats(0, 19600, 32558, 5, 0, 5, 0, 0, 0),
			goldenStats(0, 45, 47195, 5, 0, 5, 0, 0, 0)},
	})
}

// TestStoredBytesGolden pins what is stored: the PAWC encoding of the golden
// table in arrival order and in the builder's order, both recorded with PAWC
// v4. A change to how a scan evaluates a group — the order of its predicates,
// the form of its selection, what a chunk derives from its values — must leave
// both alone; a change that moves them has changed the chooser, the builder or
// the format. v3 moved them by packing raw values and FOR deltas to the byte:
// 80 925 → 76 835 bytes in arrival order and 79 747 → 74 866 built, where every
// dictionary and run chunk kept its encoding and bytes (v2 stored dict 17 730,
// FOR 23 391, raw 33 064, RLE 4 560). v4 moved them by dropping the zone-count
// word and each group's SMA count and sums, and no column byte: 76 835 →
// 76 511 and 74 866 → 74 542, 4 + 5 × 64 bytes each (five groups of seven
// columns).
func TestStoredBytesGolden(t *testing.T) {
	data, arrival := goldenTable(t)
	all := make([]int, data.NumRows())
	for i := range all {
		all[i] = i
	}
	built := NewBuilder(data, goldenGroupRows).Build(all)
	for _, c := range []struct {
		name   string
		tab    *Table
		size   int
		digest string
	}{
		{"arrival", arrival, 76511, "eff8b07a04c932ca9ff64c14d7a53e0ac0306cf01d011abead7c0f9dadb661d6"},
		{"built", built, 74542, "7c6f69322a93bae468347e8bb7ca785b0ba911d3649e1f983d9a40154e58ab63"},
	} {
		var buf bytes.Buffer
		if err := c.tab.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != c.digest || buf.Len() != c.size {
			t.Errorf("%s: %d encoded bytes hash to %s, want %d hashing to %s", c.name, buf.Len(), got, c.size, c.digest)
		}
	}
	want := map[string]int64{"dict": 17730, "for": 23384, "raw": 28190, "rle": 4560}
	if got := built.EncodedBytesByEncoding(); !maps.Equal(got, want) {
		t.Errorf("built: stored bytes by encoding %v, want %v", got, want)
	}
}

// TestDecodeReencodesByteForByte: a recorded v4 payload and both encodings of
// the golden table (every encoding shape, a short last group) decode to
// tables that encode to the same bytes again, so the decoder is pinned as
// tightly as TestStoredBytesGolden pins the encoder.
func TestDecodeReencodesByteForByte(t *testing.T) {
	data, arrival := goldenTable(t)
	all := make([]int, data.NumRows())
	for i := range all {
		all[i] = i
	}
	payloads := [][]byte{unhex(t, recordedV4)}
	for _, tab := range []*Table{arrival, NewBuilder(data, goldenGroupRows).Build(all)} {
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
