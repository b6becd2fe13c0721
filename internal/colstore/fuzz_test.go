package colstore

import (
	"bytes"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"paw/internal/dataset"
	"paw/internal/geom"
)

// fuzzDataset builds a dataset whose columns deliberately span every
// physical encoding: per column, style bits of the seed select constant
// (RLE/FOR degenerate), low-cardinality discrete (dict), sorted discrete
// (RLE), integral ramp (FOR), continuous uniform (raw), short runs of fresh
// fractions in no order (RLE at a run every two or three rows), ascending
// fractions with a fall every few hundred rows (raw in searchable pieces) or
// ascending integers or 64ths, falling back as often (FOR or dictionary in
// searchable pieces) data.
func fuzzDataset(seed int64, rows, dims int) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, dims)
	cols := make([][]float64, dims)
	for d := 0; d < dims; d++ {
		names[d] = string(rune('a' + d))
		col := make([]float64, rows)
		switch style := (seed >> uint(3*d)) & 7; style {
		case 0: // constant
			v := rng.Float64() * 100
			for i := range col {
				col[i] = v
			}
		case 1: // low-cardinality discrete
			card := 2 + rng.Intn(7)
			vals := make([]float64, card)
			for i := range vals {
				vals[i] = rng.Float64() * 50
			}
			for i := range col {
				col[i] = vals[rng.Intn(card)]
			}
		case 2: // sorted discrete: long runs
			v := rng.Float64()
			for i := range col {
				if rng.Intn(20) == 0 {
					v += rng.Float64()
				}
				col[i] = v
			}
		case 3: // integral ramp with noise
			base := math.Floor(rng.Float64() * 1000)
			for i := range col {
				col[i] = base + float64(rng.Intn(1<<16))
			}
		case 5: // unsorted runs of 1-3 rows (3 the likeliest, or a dictionary is smaller)
			for i := 0; i < rows; {
				v, k := rng.Float64(), rng.Intn(6)
				for end := min(i+1+b2i(k < 5)+b2i(k < 3), rows); i < end; i++ {
					col[i] = v
				}
			}
		case 6: // ascending, duplicates and both zeros included, falling back now and then
			v := rng.Float64()
			for i := range col {
				switch rng.Intn(400) {
				case 0:
					v = rng.Float64() - 0.5
				case 1, 2, 3:
					v = math.Copysign(0, v-0.25)
				default:
					v += float64(rng.Intn(16)) * rng.Float64() / 400
				}
				col[i] = v
			}
		case 7: // ascending integers, or 64ths (a dictionary), falling back now and then
			ranks, k := rng.Intn(2) == 0, rng.Intn(64)
			for i := range col {
				switch {
				case rng.Intn(400) == 0:
					k = rng.Intn(64)
				case ranks:
					k = min(k+rng.Intn(2), 63)
				default:
					k += rng.Intn(16)
				}
				col[i] = float64(k)
				if ranks {
					col[i] = float64(k)/64 + 0.001
				}
			}
		default: // continuous
			for i := range col {
				col[i] = rng.NormFloat64() * 10
			}
		}
		cols[d] = col
	}
	return dataset.MustNew(names, cols)
}

// fuzzQuery derives one query box from the rng: mostly partial-domain
// ranges, sometimes empty, full-domain or degenerate (point) boxes.
func fuzzQuery(rng *rand.Rand, dom geom.Box) geom.Box {
	dims := len(dom.Lo)
	q := geom.Box{Lo: make(geom.Point, dims), Hi: make(geom.Point, dims)}
	for d := 0; d < dims; d++ {
		span := dom.Hi[d] - dom.Lo[d]
		switch rng.Intn(6) {
		case 0: // full on this dim
			q.Lo[d], q.Hi[d] = dom.Lo[d], dom.Hi[d]
		case 1: // empty on this dim
			q.Lo[d], q.Hi[d] = dom.Hi[d]+1, dom.Hi[d]+2
		case 2: // degenerate point
			v := dom.Lo[d] + rng.Float64()*span
			q.Lo[d], q.Hi[d] = v, v
		default:
			a := dom.Lo[d] + rng.Float64()*span
			b := dom.Lo[d] + rng.Float64()*span
			if a > b {
				a, b = b, a
			}
			q.Lo[d], q.Hi[d] = a, b
		}
	}
	return q
}

// FuzzScanDifferential proves the vectorized count agrees with the retained
// naive scan across every encoding, on arrival-order tables and on the
// builder's clustered ones, that the values the naive path decodes are the
// source rows, and that a table round-trips through PAWC to one with
// identical counts and statistics.
func FuzzScanDifferential(f *testing.F) {
	f.Add(int64(1), uint16(100), uint8(2), uint16(32), int64(2))
	f.Add(int64(42), uint16(1000), uint8(4), uint16(128), int64(7))
	f.Add(int64(-3), uint16(2500), uint8(5), uint16(512), int64(11))
	f.Add(int64(987654), uint16(1), uint8(1), uint16(1), int64(13))
	f.Add(int64(31), uint16(513), uint8(3), uint16(4096), int64(17))
	// Several tiles of duplicate-heavy and constant columns: clustered, these
	// become all-covered groups and whole-run accepts.
	f.Add(int64(0x249), uint16(2999), uint8(4), uint16(63), int64(19))
	f.Add(int64(0x208), uint16(2047), uint8(3), uint16(255), int64(23))
	// The kernels write before they test, so the edges of the selection
	// vector matter: one-row groups throughout, and a last group of one row
	// (rows % groupRows == 1) after full ones.
	f.Add(int64(0x923), uint16(299), uint8(4), uint16(0), int64(29))
	f.Add(int64(0x11c), uint16(1024), uint8(5), uint16(255), int64(31))
	// Unsorted runs of one to three rows ahead of a raw column: the runs
	// narrow the group to hundreds of tiny spans before a value is read.
	f.Add(int64(0x25), uint16(2999), uint8(1), uint16(1023), int64(37))
	// A raw column that arrives in ascending pieces — searched, not swept — on
	// its own, behind runs, and ahead of a dictionary chunk that then refines.
	f.Add(int64(6), uint16(2999), uint8(0), uint16(699), int64(41))
	f.Add(int64(6<<3|2), uint16(2500), uint8(1), uint16(1023), int64(43))
	f.Add(int64(1<<6|6<<3|5), uint16(2999), uint8(2), uint16(511), int64(47))
	// A FOR chunk and a dictionary chunk in ascending pieces, searched like
	// raw ones: the first ahead of a dictionary in no order, the second alone.
	// (Signed zeros in FOR, RLE and dictionary chunks are testdata's seed.)
	f.Add(int64(1<<3|7), uint16(2999), uint8(1), uint16(1023), int64(53))
	f.Add(int64(7), uint16(2999), uint8(0), uint16(1023), int64(59))
	f.Fuzz(func(t *testing.T, seed int64, rowsRaw uint16, dimsRaw uint8, groupRaw uint16, qseed int64) {
		rows := 1 + int(rowsRaw)%3000
		dims := 1 + int(dimsRaw)%5
		groupRows := 1 + int(groupRaw)%1024
		data := fuzzDataset(seed, rows, dims)
		tab := FromDataset(data, nil, groupRows)
		dom := data.Domain()

		rng := rand.New(rand.NewSource(qseed))
		queries := make([]geom.Box, 4)
		for i := range queries {
			queries[i] = fuzzQuery(rng, dom)
		}

		srcPts := make([][]geom.Point, len(queries))
		for qi, q := range queries {
			for i := 0; i < rows; i++ {
				if p := data.Point(i); q.Contains(p) {
					srcPts[qi] = append(srcPts[qi], p)
				}
			}
		}
		sc := NewScanner()
		enc := tab.EncodedBytes()
		check := func(label string, tb *Table) {
			for qi, q := range queries {
				nPts, nst := tb.scanNaive(q)
				if want := data.CountInBox(q, nil); nst.Matched != want {
					t.Fatalf("%s q%d: naive matched %d, dataset %d", label, qi, nst.Matched, want)
				}
				cst := sc.Count(tb, q)
				if cst.Matched != nst.Matched {
					t.Fatalf("%s q%d: vectorized matched %d, naive %d", label, qi, cst.Matched, nst.Matched)
				}
				if cst.BytesRead+cst.BytesSkipped != enc {
					t.Fatalf("%s q%d: BytesRead %d + BytesSkipped %d != EncodedBytes %d",
						label, qi, cst.BytesRead, cst.BytesSkipped, enc)
				}
				if cst.BytesRead > nst.BytesRead {
					t.Fatalf("%s q%d: vectorized read %d > naive %d", label, qi, cst.BytesRead, nst.BytesRead)
				}
				// The decoded rows are the source rows inside q, bit for bit (in
				// a canonical order: the builder's differs from arrival's).
				got, want := bitsSorted(nPts), bitsSorted(srcPts[qi])
				if !slices.EqualFunc(got, want, slices.Equal) {
					t.Fatalf("%s q%d: naive path decodes %d rows that are not the %d source rows in the box", label, qi, len(got), len(want))
				}
				// No predicate is charged past its chunk, so scanGroups charges
				// no group more than its payload.
				for gi := range tb.groups {
					g := &tb.groups[gi]
					if g.stats.CanPrune(q) {
						continue
					}
					var gst ScanStats
					if read := sc.scanGroup(g, q, &gst); read > g.encodedBytes() {
						t.Fatalf("%s q%d group %d: charged %d of %d encoded bytes", label, qi, gi, read, g.encodedBytes())
					}
				}
			}
		}
		check("direct", tab)

		// The same rows in the builder's physical order — tight tiles and
		// long runs, the shapes production tables have — through the same
		// kernel-vs-naive and byte-accounting checks.
		all := make([]int, rows)
		for i := range all {
			all[i] = i
		}
		clustered := NewBuilder(data, data.Domain(), groupRows).Build(all, nil)
		enc = clustered.EncodedBytes()
		check("clustered", clustered)
		enc = tab.EncodedBytes()

		// PAWC round trip.
		var payload bytes.Buffer
		if err := tab.Encode(&payload); err != nil {
			t.Fatal(err)
		}
		decoded, err := Decode(&payload)
		if err != nil {
			t.Fatal(err)
		}
		if decoded.EncodedBytes() != enc {
			t.Fatalf("round trip changed encoded size: %d vs %d", decoded.EncodedBytes(), enc)
		}
		check("decoded", decoded)
	})
}

// Payloads recorded on a2509e4, the last commit that could write them: the
// 5-row, 2-column table {1..5} × {10,10,20,20,30} in 3-row groups as PAWC v1,
// as PAWC v2, and as PAWC v2 carrying the zone maps of one query. recordedV3
// is PAWC v3's encoding of {1..5} × {0.5, 0.75, 0.625, NaN, -Inf} in 3-row
// groups: two FOR chunks and two raw ones, at 52 and at 64 bits. recordedV4 is
// the same table in PAWC v4: v3's column chunks, without the zone-count word
// and with each group's SMA cut to min and max. recordedV5 is the same table in
// PAWC v5, converted field by field: it holds no dictionary chunk, the one
// kind v5 stores differently, so only the version word moves.
const (
	recordedV1 = "43574150010002000200000001006101006203000000000000000000f03f000000000000004000000000000008400000" +
		"000000002440000000000000244000000000000034400300000000000000000000000000f03f00000000000008400000" +
		"000000001840000000000000244000000000000034400000000000004440020000000000000000001040000000000000" +
		"144000000000000034400000000000003e40020000000000000000000000000010400000000000001440000000000000" +
		"224000000000000034400000000000003e400000000000004940"
	recordedV2 = "435741500200020002000000010061010062000000000300000003000000000000f03f02240000000000000003000000" +
		"000000244004000a0000000000000300000000000000000000000000f03f000000000000084000000000000018400000" +
		"000000002440000000000000344000000000000044400200000000000000000000104000000000000014400000000000" +
		"000034400000000000003e40020000000000000000000000000010400000000000001440000000000000224000000000" +
		"000034400000000000003e400000000000004940"
	recordedV2Zones = "43574150020002000200000001006101006201000000000000000000f03f000000000000004000000000000024400000" +
		"0000000024400300000003000000000000f03f02240000000000000003000000000000244004000a0000000000000300" +
		"000000000000000000000000f03f00000000000008400000000000001840000000000000244000000000000034400000" +
		"000000004440010000000000000002000000000000000000001040000000000000144000000000000000344000000000" +
		"00003e400200000000000000000000000000104000000000000014400000000000002240000000000000344000000000" +
		"00003e4000000000000049400000000000000000"
	recordedV3 = "435741500300020002000000010061010062000000000300000003000000000000f03f022400000000000000e0bf3400" +
		"000000000000000000000080000000000000040300000000000000000000000000f03f00000000000008400000000000" +
		"001840000000000000e03f000000000000e83f000000000000fe3f02000000030000000000001040010200ffffffffff" +
		"ff0f0040020000000000e8ff000000000000000002000000000000000000000000001040000000000000144000000000" +
		"00002240000000000000f0ff000000000000f0ff010000000000f87f"
	recordedV4 = "4357415004000200020000000100610100620300000003000000000000f03f022400000000000000e0bf340000000000" +
		"000000000000008000000000000004000000000000f03f0000000000000840000000000000e03f000000000000e83f02" +
		"000000030000000000001040010200ffffffffffff0f0040020000000000e8ff00000000000000000000000000001040" +
		"0000000000001440000000000000f0ff000000000000f0ff"
	recordedV5 = "4357415005000200020000000100610100620300000003000000000000f03f022400000000000000e0bf340000000000" +
		"000000000000008000000000000004000000000000f03f0000000000000840000000000000e03f000000000000e83f02" +
		"000000030000000000001040010200ffffffffffff0f0040020000000000e8ff00000000000000000000000000001040" +
		"0000000000001440000000000000f0ff000000000000f0ff"
)

// bitsSorted returns pts ordered by the bits of their coordinates, for a
// bit-for-bit multiset comparison (signed zeros and NaNs included).
func bitsSorted(pts []geom.Point) [][]uint64 {
	out := make([][]uint64, len(pts))
	for i, p := range pts {
		out[i] = make([]uint64, len(p))
		for d, v := range p {
			out[i][d] = math.Float64bits(v)
		}
	}
	slices.SortFunc(out, slices.Compare)
	return out
}

func unhex(t testing.TB, s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDecodeRefusesRecordedV1: nothing writes PAWC v1, so a recorded v1
// payload takes the unsupported-version error.
func TestDecodeRefusesRecordedV1(t *testing.T) {
	_, err := Decode(bytes.NewReader(unhex(t, recordedV1)))
	if err == nil || !strings.Contains(err.Error(), "unsupported version 1") || !strings.Contains(err.Error(), "pawcli build -store") {
		t.Fatalf("v1 payload: err = %v, want unsupported version 1 and the remedy", err)
	}
}

// TestDecodeRefusesRecordedV2: nothing writes PAWC v2 — it stored raw values
// as float64s and FOR deltas in 64-bit words — so both recorded v2 payloads take
// the unsupported-version error.
func TestDecodeRefusesRecordedV2(t *testing.T) {
	for _, payload := range []string{recordedV2, recordedV2Zones} {
		_, err := Decode(bytes.NewReader(unhex(t, payload)))
		if err == nil || !strings.Contains(err.Error(), "unsupported version 2") || !strings.Contains(err.Error(), "pawcli build -store") {
			t.Fatalf("v2 payload: err = %v, want unsupported version 2 and the remedy", err)
		}
	}
}

// TestDecodeRefusesRecordedV3: nothing writes PAWC v3 — it carried an
// always-zero zone-count word and an SMA count and sum per group that no scan
// read — so the recorded v3 payload takes the unsupported-version error.
func TestDecodeRefusesRecordedV3(t *testing.T) {
	_, err := Decode(bytes.NewReader(unhex(t, recordedV3)))
	if err == nil || !strings.Contains(err.Error(), "unsupported version 3") || !strings.Contains(err.Error(), "pawcli build -store") {
		t.Fatalf("v3 payload: err = %v, want unsupported version 3 and the remedy", err)
	}
}

// TestDecodeRefusesRecordedV4: nothing writes PAWC v4 — it stored a byte or
// two a dictionary code — so the recorded v4 payload takes the
// unsupported-version error.
func TestDecodeRefusesRecordedV4(t *testing.T) {
	_, err := Decode(bytes.NewReader(unhex(t, recordedV4)))
	if err == nil || !strings.Contains(err.Error(), "unsupported version 4") || !strings.Contains(err.Error(), "pawcli build -store") {
		t.Fatalf("v4 payload: err = %v, want unsupported version 4 and the remedy", err)
	}
}

// TestDecodeRecordedV5: the recorded v5 payload decodes to its table, bit for
// bit, with each group's SMA count taken from its row count, and re-encodes to
// itself.
func TestDecodeRecordedV5(t *testing.T) {
	plain := unhex(t, recordedV5)
	tab, err := Decode(bytes.NewReader(plain))
	if err != nil {
		t.Fatalf("recorded v5 payload: %v", err)
	}
	b := make([]float64, 5)
	for g, at := range []int{0, 3} {
		tab.groups[g].cols[1].decodeInto(b[at:])
		if st := &tab.groups[g].stats; st.Count != int64(tab.groups[g].rows) {
			t.Fatalf("group %d: SMA count %d for %d rows", g, st.Count, tab.groups[g].rows)
		}
	}
	for i, want := range []float64{0.5, 0.75, 0.625, math.NaN(), math.Inf(-1)} {
		if math.Float64bits(b[i]) != math.Float64bits(want) {
			t.Fatalf("recorded v5 payload decodes b[%d] as %v, want %v", i, b[i], want)
		}
	}
	var buf bytes.Buffer
	if err := tab.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), plain) {
		t.Fatalf("recorded v5 payload re-encodes to\n%x, want\n%x", buf.Bytes(), plain)
	}
}

// dictPayload is the PAWC payload of one 64-row dictionary chunk of the
// values 0.5, 1.25 and 3 in two ascending pieces: three values at 2 bits a
// rank, the width byte at dictWidthAt and the ranks after it.
func dictPayload(t testing.TB) []byte {
	vals := make([]float64, 64)
	for i := range vals {
		vals[i] = []float64{0.5, 1.25, 3}[i%32/11]
	}
	tab := FromDataset(dataset.MustNew([]string{"d"}, [][]float64{vals}), nil, 0)
	if c := &tab.groups[0].cols[0]; c.kind != colDict || c.width != 2 || c.pieces == nil {
		t.Fatalf("dictionary payload holds a %v chunk at %d bits, searchable %v", c.kind, c.width, c.pieces != nil)
	}
	var buf bytes.Buffer
	if err := tab.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// dictWidthAt is where dictPayload's width byte is: past the 15-byte header,
// the row count, the kind tag, the card word and three values.
const dictWidthAt = 15 + 4 + 1 + 4 + 3*8

// TestDecodeRefusesBadDictionary: a dictionary's ranks are packed at exactly
// the bits its highest rank needs, and each names one of its values; a payload
// with a wider or narrower width, or a rank past the last value, is an error.
func TestDecodeRefusesBadDictionary(t *testing.T) {
	good := dictPayload(t)
	if _, err := Decode(bytes.NewReader(good)); err != nil {
		t.Fatalf("dictionary payload: %v", err)
	}
	for _, bad := range []struct {
		name, err string
		at        int
		b         byte
	}{
		{"wider", "packed at 3 bits", dictWidthAt, 3},
		{"narrower", "packed at 1 bits", dictWidthAt, 1},
		{"rank past the dictionary", "rank 3 out of range", dictWidthAt + 1, 0xff},
	} {
		payload := slices.Clone(good)
		payload[bad.at] = bad.b
		if _, err := Decode(bytes.NewReader(payload)); err == nil || !strings.Contains(err.Error(), bad.err) {
			t.Errorf("%s: err = %v, want %q", bad.name, err, bad.err)
		}
	}
}

// TestDecodeHostileRowCount: a 35-byte payload whose first group claims 2²⁸ raw
// rows at 64 bits is an error that costs no more memory than the bytes that
// arrived.
func TestDecodeHostileRowCount(t *testing.T) {
	payload := unhex(t, recordedV5)[:18]          // header of a 2-column table
	payload = append(payload, 0, 0, 0, 0x10, 0)   // rows = 1<<28, kind raw
	payload = append(payload, make([]byte, 8)...) // least key
	payload = append(payload, 64, 1, 2, 3)        // width, three bytes of offsets
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decode(bytes.NewReader(payload))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a truncated 2²⁸-row group decoded")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("decoding %d hostile bytes allocated %d", len(payload), got)
	}
}

// FuzzDecode: arbitrary bytes decode to an error or to a table that re-encodes
// to a payload decoding to the same shape — never a panic, never memory the
// input did not pay for. A payload is what a worker takes off the wire at a
// partition install.
func FuzzDecode(f *testing.F) {
	f.Add(unhex(f, recordedV1))
	f.Add(unhex(f, recordedV2))
	f.Add(unhex(f, recordedV4))
	// A raw chunk in two ascending pieces, which Decode must find again.
	var sorted bytes.Buffer
	if err := FromDataset(fuzzDataset(6, 40, 1), nil, 0).Encode(&sorted); err != nil {
		f.Fatal(err)
	}
	f.Add(sorted.Bytes())
	f.Add(unhex(f, recordedV3))
	f.Add(unhex(f, recordedV5))
	// A dictionary chunk in ascending pieces, and the two ways to corrupt it
	// that only the dictionary checks catch: a width other than its ranks',
	// and a rank past its last value.
	dict := dictPayload(f)
	f.Add(dict)
	wide, past := slices.Clone(dict), slices.Clone(dict)
	wide[dictWidthAt], past[dictWidthAt+1] = 3, 0xff
	f.Add(wide)
	f.Add(past)
	f.Fuzz(func(t *testing.T, data []byte) {
		tab, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := tab.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		again, err := Decode(&buf)
		if err != nil {
			t.Fatalf("re-encoded table does not decode: %v", err)
		}
		if again.NumRows() != tab.NumRows() || again.NumGroups() != tab.NumGroups() || again.EncodedBytes() != tab.EncodedBytes() {
			t.Fatalf("re-decoded table has %d rows in %d groups, %d bytes; want %d in %d, %d",
				again.NumRows(), again.NumGroups(), again.EncodedBytes(), tab.NumRows(), tab.NumGroups(), tab.EncodedBytes())
		}
	})
}
