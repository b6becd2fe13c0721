package colstore

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"paw/internal/dataset"
	"paw/internal/geom"
)

// fuzzDataset builds a dataset whose columns deliberately span every
// physical encoding: per column, style bits of the seed select constant
// (RLE/FOR degenerate), low-cardinality discrete (dict), sorted discrete
// (RLE), integral ramp (FOR), continuous uniform (raw) or short runs of
// fresh fractions in no order (RLE at a run every two or three rows) data.
func fuzzDataset(seed int64, rows, dims int) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, dims)
	cols := make([][]float64, dims)
	for d := 0; d < dims; d++ {
		names[d] = string(rune('a' + d))
		col := make([]float64, rows)
		style := (seed >> uint(3*d)) & 7
		if style > 5 {
			style -= 5
		}
		switch style {
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

// FuzzScanDifferential proves the vectorized kernels are byte-identical to
// the retained naive scan across every encoding, on arrival-order tables and
// on the builder's clustered ones, and that both PAWC v2 and the legacy v1
// layout round-trip to tables with identical scan results and statistics.
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

		sc := NewScanner()
		enc := tab.EncodedBytes()
		check := func(label string, tb *Table) {
			for qi, q := range queries {
				nPts, nst := tb.ScanNaive(q)
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
				flat, sst := sc.Scan(tb, q)
				if sst.Matched != nst.Matched || sst.RowsDecoded != int64(nst.Matched) {
					t.Fatalf("%s q%d: scan stats %+v vs naive matched %d", label, qi, sst, nst.Matched)
				}
				if len(flat) != nst.Matched*dims {
					t.Fatalf("%s q%d: flat length %d for %d rows", label, qi, len(flat), nst.Matched)
				}
				for r, p := range nPts {
					for d := 0; d < dims; d++ {
						if flat[r*dims+d] != p[d] {
							t.Fatalf("%s q%d row %d dim %d: vectorized %v, naive %v",
								label, qi, r, d, flat[r*dims+d], p[d])
						}
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
		clustered := NewBuilder(data, groupRows).Build(all)
		enc = clustered.EncodedBytes()
		check("clustered", clustered)
		enc = tab.EncodedBytes()

		// PAWC v2 round trip, including feature-vector zone maps built from
		// the fuzz queries (zone skipping must never change results).
		tab.BuildZoneMaps(queries)
		var v2 bytes.Buffer
		if err := tab.Encode(&v2); err != nil {
			t.Fatal(err)
		}
		got2, err := Decode(&v2)
		if err != nil {
			t.Fatal(err)
		}
		if got2.EncodedBytes() != enc {
			t.Fatalf("v2 round trip changed encoded size: %d vs %d", got2.EncodedBytes(), enc)
		}
		if len(got2.ZoneMapQueries()) != len(queries) {
			t.Fatalf("v2 round trip lost zone maps: %d queries", len(got2.ZoneMapQueries()))
		}
		check("v2", got2)

		// Legacy v1 layout: raw columns re-encode through the same chooser,
		// so the upgraded table is indistinguishable from the original.
		var v1 bytes.Buffer
		if err := encodeV1(tab, &v1); err != nil {
			t.Fatal(err)
		}
		got1, err := Decode(&v1)
		if err != nil {
			t.Fatal(err)
		}
		if got1.EncodedBytes() != enc {
			t.Fatalf("v1 upgrade changed encoded size: %d vs %d", got1.EncodedBytes(), enc)
		}
		check("v1", got1)
	})
}
