package colstore

import (
	"bytes"
	"crypto/sha256"
	"fmt"
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
	if g.cols[gFOR0].forBits != 0 || g.cols[gFOR13].forBits != 13 || g.cols[gFOR32].forBits != 32 {
		t.Fatalf("golden FOR widths %d/%d/%d, want 0/13/32",
			g.cols[gFOR0].forBits, g.cols[gFOR13].forBits, g.cols[gFOR32].forBits)
	}
	if last := tab.groups[len(tab.groups)-1].rows; last != 37 {
		t.Fatalf("golden last group has %d rows, want 37", last)
	}
	return data, tab
}

// goldenStats is ScanStats in the order the literals below are written:
// matched, read, skipped, decoded, groups read/skipped, cols raw/dict/rle/for.
func goldenStats(matched int, read, skipped, decoded int64, gRead, gSkipped, raw, dict, rle, fr int) ScanStats {
	return ScanStats{
		Matched: matched, BytesRead: read, BytesSkipped: skipped, RowsDecoded: decoded,
		GroupsRead: gRead, GroupsSkipped: gSkipped,
		ColsRaw: raw, ColsDict: dict, ColsRLE: rle, ColsFOR: fr,
	}
}

func goldenLiteral(st ScanStats) string {
	return fmt.Sprintf("goldenStats(%d, %d, %d, %d, %d, %d, %d, %d, %d, %d)",
		st.Matched, st.BytesRead, st.BytesSkipped, st.RowsDecoded,
		st.GroupsRead, st.GroupsSkipped, st.ColsRaw, st.ColsDict, st.ColsRLE, st.ColsFOR)
}

// TestScanBytesGolden pins the kernels' whole accounting — not only the match
// count and the BytesRead + BytesSkipped identity the differential fuzzer
// checks, but the exact bytes every arm reports touched — on one table holding
// every encoding shape. A kernel change must reproduce the literals; they are
// regenerated only when the accounting contract or the evaluation order is
// itself what a PR changes — never to make a kernel pass (TESTING.md).
//
// Every case carries the literals recorded on 5edd304, before the branch-free
// kernels, under most-selective-first order and a position per row (count,
// scan). PR 22's order — run chunks first, then cheapest per rejected row —
// changed which values a scan with several active predicates touches, not what
// a touch is charged, so the cases it moved carry a second pair (now) beside
// the first, and the test holds the pair to the re-record rule: same Matched,
// RowsDecoded, groups read and skipped and BytesRead + BytesSkipped, BytesRead
// no higher. A case with at most one active predicate has no order to change
// and may carry no second pair: it stays bit-identical to 5edd304.
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
	// refining adds a narrower predicate on lead. Under 5edd304's order lead
	// ran first and d refined; now the cheaper chunk of the two leads.
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

	// onRow pins the raw column to one stored value. At estimate 0 it led under
	// 5edd304's order and whatever else q constrains refined a one-row
	// selection; now it goes last and is not reached.
	onRow := func(q geom.Box) geom.Box {
		q.Lo[gRaw], q.Hi[gRaw] = row[gRaw], row[gRaw]
		return q
	}

	cases := []struct {
		name        string
		q           geom.Box
		count, scan ScanStats
		now         []ScanStats // count, scan; nil where 5edd304's stand
	}{
		{"empty", empty,
			goldenStats(0, 0, 79920, 0, 0, 5, 0, 0, 0, 0),
			goldenStats(0, 0, 79920, 0, 0, 5, 0, 0, 0, 0), nil},
		{"full-domain", dom,
			goldenStats(4133, 0, 79920, 0, 5, 0, 0, 0, 0, 0),
			goldenStats(4133, 79920, 0, 4133, 5, 0, 6, 9, 5, 15), nil},
		{"point-on-a-row", geom.Box{Lo: row, Hi: row},
			goldenStats(1, 35165, 44755, 0, 4, 1, 4, 2, 1, 2),
			goldenStats(1, 35165, 44755, 1, 4, 1, 4, 2, 1, 3),
			[]ScanStats{goldenStats(1, 4050, 75870, 0, 4, 1, 1, 5, 4, 5),
				goldenStats(1, 4050, 75870, 1, 4, 1, 1, 5, 4, 6)}},
		{"between-dict8-values", between(gDict8, 0.30, 0.40),
			goldenStats(0, 300, 79620, 0, 5, 0, 0, 5, 0, 0),
			goldenStats(0, 300, 79620, 0, 5, 0, 0, 5, 0, 0), nil},
		{"between-for13-values", between(gFOR13, 2000.25, 2000.75),
			goldenStats(0, 45, 79875, 0, 5, 0, 0, 0, 0, 5),
			goldenStats(0, 45, 79875, 0, 5, 0, 0, 0, 0, 5), nil},
		{"between-dict8-refining", onRow(between(gDict8, 0.30, 0.40)),
			goldenStats(0, 33124, 46796, 0, 5, 0, 5, 1, 0, 0),
			goldenStats(0, 33124, 46796, 0, 5, 0, 5, 1, 0, 0),
			[]ScanStats{goldenStats(0, 300, 79620, 0, 5, 0, 0, 5, 0, 0),
				goldenStats(0, 300, 79620, 0, 5, 0, 0, 5, 0, 0)}},
		{"between-for13-refining", onRow(between(gFOR13, 2000.25, 2000.75)),
			goldenStats(0, 33064, 46856, 0, 5, 0, 5, 0, 0, 1),
			goldenStats(0, 33064, 46856, 0, 5, 0, 5, 0, 0, 1),
			[]ScanStats{goldenStats(0, 45, 79875, 0, 5, 0, 0, 0, 0, 5),
				goldenStats(0, 45, 79875, 0, 5, 0, 0, 0, 0, 5)}},
		{"raw-first", first(gRaw),
			goldenStats(2064, 33064, 46856, 0, 5, 0, 5, 0, 0, 0),
			goldenStats(2064, 67458, 12462, 2064, 5, 0, 6, 9, 5, 15), nil},
		{"raw-refining", refining(gRaw, gDict8),
			goldenStats(885, 18393, 61527, 0, 5, 0, 5, 5, 0, 0),
			goldenStats(885, 32265, 47655, 885, 5, 0, 6, 9, 5, 15), nil},
		{"dict8-first", first(gDict8),
			goldenStats(1745, 4433, 75487, 0, 5, 0, 0, 5, 0, 0),
			goldenStats(1745, 45756, 34164, 1745, 5, 0, 6, 9, 5, 15), nil},
		{"dict8-refining", refining(gDict8, gRaw),
			goldenStats(706, 35015, 44905, 0, 5, 0, 5, 5, 0, 0),
			goldenStats(706, 46084, 33836, 706, 5, 0, 6, 9, 5, 15),
			[]ScanStats{goldenStats(706, 18393, 61527, 0, 5, 0, 5, 5, 0, 0),
				goldenStats(706, 29462, 50458, 706, 5, 0, 6, 9, 5, 15)}},
		{"dict16-first", first(gDict16),
			goldenStats(2063, 17752, 62168, 0, 5, 0, 1, 4, 0, 0),
			goldenStats(2063, 64430, 15490, 2063, 5, 0, 6, 9, 5, 15), nil},
		{"dict16-refining", refining(gDict16, gRaw),
			goldenStats(846, 45684, 34236, 0, 5, 0, 6, 4, 0, 0),
			goldenStats(846, 58059, 21861, 846, 5, 0, 6, 9, 5, 15),
			[]ScanStats{goldenStats(846, 34184, 45736, 0, 5, 0, 6, 4, 0, 0),
				goldenStats(846, 46559, 33361, 846, 5, 0, 6, 9, 5, 15)}},
		{"rle-first", first(gRLE),
			goldenStats(2160, 1252, 78668, 0, 4, 1, 0, 0, 4, 0),
			goldenStats(2160, 37162, 42758, 2160, 4, 1, 4, 8, 4, 12), nil},
		{"rle-refining", refining(gRLE, gRaw),
			goldenStats(866, 34004, 45916, 0, 4, 1, 4, 0, 4, 0),
			goldenStats(866, 41476, 38444, 866, 4, 1, 4, 8, 4, 12),
			[]ScanStats{goldenStats(866, 18532, 61388, 0, 4, 1, 4, 0, 4, 0),
				goldenStats(866, 26004, 53916, 866, 4, 1, 4, 8, 4, 12)}},
		{"rle-refining-sparse", mid(first(gRLE), gRaw, 0.3, 0.31),
			goldenStats(22, 33116, 46804, 0, 4, 1, 4, 0, 4, 0),
			goldenStats(22, 33308, 46612, 22, 4, 1, 4, 8, 4, 12),
			[]ScanStats{goldenStats(22, 18532, 61388, 0, 4, 1, 4, 0, 4, 0),
				goldenStats(22, 18724, 61196, 22, 4, 1, 4, 8, 4, 12)}},
		{"for13-first", first(gFOR13),
			goldenStats(2062, 6765, 73155, 0, 5, 0, 0, 0, 0, 5),
			goldenStats(2062, 54287, 25633, 2062, 5, 0, 6, 9, 5, 15), nil},
		{"for13-refining", refining(gFOR13, gRaw),
			goldenStats(828, 35749, 44171, 0, 5, 0, 5, 0, 0, 5),
			goldenStats(828, 48199, 31721, 828, 5, 0, 6, 9, 5, 15),
			[]ScanStats{goldenStats(828, 23261, 56659, 0, 5, 0, 5, 0, 0, 5),
				goldenStats(828, 35711, 44209, 828, 5, 0, 6, 9, 5, 15)}},
		{"for32-first", first(gFOR32),
			goldenStats(2039, 16581, 63339, 0, 5, 0, 0, 0, 0, 5),
			goldenStats(2039, 58733, 21187, 2039, 5, 0, 6, 9, 5, 15), nil},
		{"for32-refining", refining(gFOR32, gRaw),
			goldenStats(831, 39668, 40252, 0, 5, 0, 5, 0, 0, 5),
			goldenStats(831, 50197, 29723, 831, 5, 0, 6, 9, 5, 15),
			[]ScanStats{goldenStats(831, 32893, 47027, 0, 5, 0, 5, 0, 0, 5),
				goldenStats(831, 43422, 36498, 831, 5, 0, 6, 9, 5, 15)}},
	}
	sc := NewScanner()
	for _, c := range cases {
		wantCount, wantScan := c.count, c.scan
		if c.now != nil {
			active := 0
			for d := range dom.Lo {
				if c.q.Lo[d] > dom.Lo[d] || c.q.Hi[d] < dom.Hi[d] {
					active++
				}
			}
			if active <= 1 {
				t.Errorf("%s: %d active predicate(s) leave no order to change; the 5edd304 literal must stand", c.name, active)
			}
			wantCount, wantScan = c.now[0], c.now[1]
			for i, was := range []ScanStats{c.count, c.scan} {
				now := c.now[i]
				if now.Matched != was.Matched || now.RowsDecoded != was.RowsDecoded ||
					now.GroupsRead != was.GroupsRead || now.GroupsSkipped != was.GroupsSkipped ||
					now.BytesRead+now.BytesSkipped != was.BytesRead+was.BytesSkipped {
					t.Errorf("%s: re-recorded literal %+v changes more than which values are touched (was %+v)", c.name, now, was)
				}
				if now.BytesRead > was.BytesRead {
					t.Errorf("%s: re-recorded literal reads %d bytes, 5edd304 read %d: the order may only read less", c.name, now.BytesRead, was.BytesRead)
				}
			}
		}
		count := sc.Count(tab, c.q)
		_, scan := sc.Scan(tab, c.q)
		if count != wantCount || scan != wantScan {
			t.Errorf("%s: accounting moved; got\n\t\t\t%s,\n\t\t\t%s},", c.name, goldenLiteral(count), goldenLiteral(scan))
		}
		if want := data.CountInBox(c.q, nil); count.Matched != want || scan.Matched != want {
			t.Errorf("%s: matched %d (count) / %d (scan), dataset says %d", c.name, count.Matched, scan.Matched, want)
		}
	}
}

// TestStoredBytesGolden pins what is stored: the PAWC encoding of the golden
// table in arrival order and in the builder's order, digests recorded on
// 691f41a. A change to how a scan evaluates a group — the order of its
// predicates, the form of its selection — must leave both alone; a change that
// moves them has changed the chooser, the builder or the format, and heap_mb
// and setup_s with it.
func TestStoredBytesGolden(t *testing.T) {
	data, arrival := goldenTable(t)
	all := make([]int, data.NumRows())
	for i := range all {
		all[i] = i
	}
	for _, c := range []struct {
		name   string
		tab    *Table
		digest string
	}{
		{"arrival", arrival, "76eac190f2234ed6cedfd85eb0326a1e72ce2cf21be4c5e2e8504bfdf2d61f3d"},
		{"built", NewBuilder(data, goldenGroupRows).Build(all), "520e2c62006a3e3b1c6ccefddcc699189a218ce892aca9c8ce3ac69442d00df2"},
	} {
		var buf bytes.Buffer
		if err := c.tab.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != c.digest {
			t.Errorf("%s: %d encoded bytes hash to %s, want %s", c.name, buf.Len(), got, c.digest)
		}
	}
}
