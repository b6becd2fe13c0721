package colstore

import (
	"bytes"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"paw/internal/dataset"
	"paw/internal/geom"
)

// clusterDatasets are the shapes the physical order must cope with: a mix of
// every encoding, a constant column, duplicate-heavy columns, continuous
// columns, and one column whose few values tie across whole tiles.
func clusterDatasets() map[string]*dataset.Dataset {
	ties := make([]float64, 5000)
	ramp := make([]float64, 5000)
	for i := range ties {
		ties[i] = float64(i % 3)
		ramp[i] = float64(5000 - i)
	}
	// Nine 200-value columns: more run-key bits than fit beside the position.
	rng := rand.New(rand.NewSource(8))
	many := make([][]float64, 9)
	manyNames := make([]string, len(many))
	for d := range many {
		manyNames[d] = string(rune('a' + d))
		many[d] = make([]float64, 3000)
		for i := range many[d] {
			many[d][i] = float64(rng.Intn(200 - d))
		}
	}
	return map[string]*dataset.Dataset{
		"many-keys": dataset.MustNew(manyNames, many),
		"tpch":      dataset.TPCHLike(6000, 3).Project(4),
		"tpch-wide": dataset.TPCHLike(3000, 4),
		"osm":       dataset.OSMLike(5000, 6, 5),
		"uniform":   dataset.Uniform(4000, 3, 6),
		"fuzz-mix":  fuzzDataset(0x2c1, 2500, 5), // constant, dict, sorted, ramp, continuous
		"ties":      dataset.MustNew([]string{"t", "r"}, [][]float64{ties, ramp}),
	}
}

// specialsDataset is the tail column at its worst: "tail" holds 400 values
// many times over, both zeros, NaNs of either sign; "inf" would be as wide but
// reaches ±Inf, so its domain has no extent to measure against and it is never
// split on and never a tail; "k" is a run key and "narrow" a plain column.
func specialsDataset(n int) *dataset.Dataset {
	rng := rand.New(rand.NewSource(24))
	k, tail, inf, narrow := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range k {
		k[i] = float64(rng.Intn(5))
		tail[i] = float64(rng.Intn(400)-200) / 8
		inf[i] = rng.NormFloat64()
		narrow[i] = rng.Float64()
		switch rng.Intn(60) {
		case 0:
			tail[i] = math.NaN()
		case 1:
			tail[i] = math.Float64frombits(math.Float64bits(math.NaN()) | 1<<63)
		case 2:
			tail[i] = math.Copysign(0, -1)
		case 3:
			inf[i] = math.Inf(rng.Intn(2)*2 - 1)
		}
	}
	return dataset.MustNew([]string{"k", "tail", "inf", "narrow"}, [][]float64{k, tail, inf, narrow})
}

// orderDatasets adds to clusterDatasets what only the order tests can take: the
// dataset oracle counts a NaN as inside every box, the kernels as inside none.
func orderDatasets() map[string]*dataset.Dataset {
	all := clusterDatasets()
	all["specials"] = specialsDataset(5000)
	return all
}

func shuffledRows(n int, seed int64) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}

// sortedPoints returns pts in a canonical order, for multiset comparison.
func sortedPoints(pts []geom.Point) []geom.Point {
	out := slices.Clone(pts)
	sort.Slice(out, func(i, j int) bool { return slices.Compare(out[i], out[j]) < 0 })
	return out
}

// TestClusteredScanDifferential: whatever order the builder chooses, a
// clustered table answers every query exactly as the arrival-order table's
// naive scan and the dataset do — for group sizes from one row to more than
// the table holds.
func TestClusteredScanDifferential(t *testing.T) {
	for name, data := range clusterDatasets() {
		n := data.NumRows()
		dom := data.Domain()
		for _, groupRows := range []int{1, 7, 256, 2048, n + 1} {
			if groupRows == 1 && n > 3000 {
				continue // one group per row: keep the quadratic naive scans small
			}
			arrival := FromDataset(data, nil, groupRows)
			rows := shuffledRows(n, int64(groupRows))
			tab := NewBuilder(data, groupRows).Build(rows)
			if tab.NumRows() != n || tab.NumGroups() != arrival.NumGroups() {
				t.Fatalf("%s/%d: clustered table has %d rows in %d groups, arrival %d in %d",
					name, groupRows, tab.NumRows(), tab.NumGroups(), n, arrival.NumGroups())
			}
			rng := rand.New(rand.NewSource(int64(groupRows) + 99))
			sc := NewScanner()
			for qi := 0; qi < 12; qi++ {
				q := fuzzQuery(rng, dom)
				want := data.CountInBox(q, nil)
				naivePts, naive := arrival.scanNaive(q)
				if naive.Matched != want || arrival.CountNaive(q).Matched != want {
					t.Fatalf("%s/%d q%d: naive scan %d, dataset %d", name, groupRows, qi, naive.Matched, want)
				}
				cst := sc.Count(tab, q)
				if cst.Matched != want {
					t.Fatalf("%s/%d q%d: clustered count %d, want %d", name, groupRows, qi, cst.Matched, want)
				}
				if cst.BytesRead+cst.BytesSkipped != tab.EncodedBytes() {
					t.Fatalf("%s/%d q%d: read %d + skipped %d != encoded %d",
						name, groupRows, qi, cst.BytesRead, cst.BytesSkipped, tab.EncodedBytes())
				}
				pts, sst := tab.Scan(q)
				if sst.Matched != want || len(pts) != want {
					t.Fatalf("%s/%d q%d: clustered scan %d rows (%d points), want %d",
						name, groupRows, qi, sst.Matched, len(pts), want)
				}
				got, ref := sortedPoints(pts), sortedPoints(naivePts)
				for i := range ref {
					if !slices.Equal(got[i], ref[i]) {
						t.Fatalf("%s/%d q%d: result multisets differ at %d: %v vs %v", name, groupRows, qi, i, got[i], ref[i])
					}
				}
			}
		}
	}
}

// TestClusterIsPureFunctionOfRowSet: the order depends on the row set only —
// not on the order the rows arrive in, not on scratch reuse — and the table
// order Build leaves in rows is the order of the table's rows.
func TestClusterIsPureFunctionOfRowSet(t *testing.T) {
	for name, data := range orderDatasets() {
		n := data.NumRows()
		b := NewBuilder(data, 128)
		// A proper subset, so source row indices and positions differ.
		var subset []int
		for r := 0; r < n; r++ {
			if r%3 != 1 {
				subset = append(subset, r)
			}
		}
		ref := slices.Clone(subset)
		refTab := b.Build(ref)
		var refBytes bytes.Buffer
		if err := refTab.Encode(&refBytes); err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 3; seed++ {
			rows := slices.Clone(subset)
			rand.New(rand.NewSource(seed)).Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
			tab := NewBuilder(data, 128).Build(rows)
			if !slices.Equal(rows, ref) {
				t.Fatalf("%s: table order depends on arrival order (seed %d)", name, seed)
			}
			var got bytes.Buffer
			if err := tab.Encode(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), refBytes.Bytes()) {
				t.Fatalf("%s: encoded table depends on arrival order (seed %d)", name, seed)
			}
		}
		// rows in table order reproduce the table, value for value.
		i := 0
		for g := 0; g < refTab.NumGroups(); g++ {
			for _, p := range refTab.groupPoints(g) {
				for d := range p {
					if v := data.At(ref[i], d); v != p[d] && !(math.IsNaN(v) && math.IsNaN(p[d])) {
						t.Fatalf("%s: table row %d dim %d holds %v, source row %d holds %v", name, i, d, p[d], ref[i], v)
					}
				}
				i++
			}
		}
	}
}

// lessOn is the (value, source row) total order the tiling splits on.
func lessOn(data *dataset.Dataset, d, a, b int) bool {
	va, vb := data.At(a, d), data.At(b, d)
	return va < vb || va == vb && a < b
}

// checkTiling verifies the k-d structure of a clustered order: a segment
// longer than one row group splits, at the multiple of groupRows the builder
// uses, into a left part that sorts entirely before the right part on some
// dimension — recursively, down to single groups. It returns the number of
// single-group tiles found.
func checkTiling(t *testing.T, data *dataset.Dataset, rows []int, groupRows int) int {
	t.Helper()
	if len(rows) <= groupRows {
		return 1
	}
	k := (len(rows) + groupRows - 1) / groupRows / 2 * groupRows
	left, right := rows[:k], rows[k:]
	split := -1
	for d := 0; d < data.Dims() && split < 0; d++ {
		maxL, minR := left[0], right[0]
		for _, r := range left {
			if lessOn(data, d, maxL, r) {
				maxL = r
			}
		}
		for _, r := range right {
			if lessOn(data, d, r, minR) {
				minR = r
			}
		}
		if lessOn(data, d, maxL, minR) {
			split = d
		}
	}
	if split < 0 {
		t.Fatalf("segment of %d rows does not split at %d on any dimension", len(rows), k)
	}
	return checkTiling(t, data, left, groupRows) + checkTiling(t, data, right, groupRows)
}

// envelopeVolume sums, over the row groups, the volume of the group's
// min/max envelope relative to the domain — what min/max pruning sees.
func envelopeVolume(tab *Table, dom geom.Box) float64 {
	var sum float64
	for g := 0; g < tab.NumGroups(); g++ {
		st := tab.groupStats(g)
		vol := 1.0
		for d := range st.Min {
			if ext := dom.Hi[d] - dom.Lo[d]; ext > 0 {
				vol *= (st.Max[d] - st.Min[d]) / ext
			}
		}
		sum += vol
	}
	return sum
}

// TestClusterTilesAndRuns is the property the order exists for: every row
// group is one k-d tile (group boundaries are tile boundaries), tiles are no
// looser than arrival-order groups, and inside a tile the low-cardinality
// columns ascend lexicographically, fewest distinct values first; rows that tie
// on all of them ascend on the tile's tail column — the widest in that tile of
// the columns that are not run keys — under orderKey, ties by source row.
func TestClusterTilesAndRuns(t *testing.T) {
	for name, data := range orderDatasets() {
		n, dims := data.NumRows(), data.Dims()
		for _, groupRows := range []int{7, 256, 2048} {
			rows := shuffledRows(n, 1)
			tab := NewBuilder(data, groupRows).Build(rows)
			if tiles := checkTiling(t, data, rows, groupRows); tiles != tab.NumGroups() {
				t.Fatalf("%s/%d: %d tiles for %d row groups", name, groupRows, tiles, tab.NumGroups())
			}
			dom := data.Domain()
			arrival := envelopeVolume(FromDataset(data, nil, groupRows), dom)
			if got := envelopeVolume(tab, dom); got > arrival*(1+1e-12) {
				t.Errorf("%s/%d: clustered group envelopes cover %.4g domain volumes, arrival order %.4g",
					name, groupRows, got, arrival)
			}

			// Run keys, computed independently: the columns with at most
			// runKeyCap distinct values, ascending by count then index, as
			// long as their rank bits fit in a word beside the position.
			type keyCol struct{ d, distinct int }
			var keyCols []keyCol
			for d := 0; d < dims; d++ {
				seen := map[float64]bool{}
				for _, v := range data.Column(d) {
					seen[v] = true
				}
				if len(seen) <= runKeyCap {
					keyCols = append(keyCols, keyCol{d, len(seen)})
				}
			}
			sort.SliceStable(keyCols, func(i, j int) bool { return keyCols[i].distinct < keyCols[j].distinct })
			free := 64 - bits.Len(uint(n-1))
			for i, kc := range keyCols {
				if free -= bits.Len(uint(kc.distinct - 1)); free < 0 {
					keyCols = keyCols[:i]
					break
				}
			}
			if name == "many-keys" && (len(keyCols) == 0 || len(keyCols) == dims) {
				t.Fatalf("many-keys: %d of %d columns fit the run key; the case must overflow it", len(keyCols), dims)
			}
			isKey := make([]bool, dims)
			for _, kc := range keyCols {
				isKey[kc.d] = true
			}
			tails := map[int]int{} // tail column (-1: none) -> tiles
			for lo := 0; lo < n; lo += groupRows {
				tile := rows[lo:min(lo+groupRows, n)]
				// The tail, computed independently: the extent the tile's
				// statistics will show (NaNs aside) against the domain's.
				tail, widest := -1, 0.0
				for d := 0; d < dims; d++ {
					ext := dom.Hi[d] - dom.Lo[d]
					if isKey[d] || !(ext > 0) || math.IsInf(ext, 0) {
						continue
					}
					mn, mx := math.Inf(1), math.Inf(-1)
					for _, r := range tile {
						if v := data.At(r, d); v < mn {
							mn = v
						}
						if v := data.At(r, d); v > mx {
							mx = v
						}
					}
					if w := (mx - mn) * (1 / ext); w > widest {
						tail, widest = d, w
					}
				}
				tails[tail]++
				for i := 1; i < len(tile); i++ {
					a, b := tile[i-1], tile[i]
					ordered := a < b
					if tail >= 0 {
						if ka, kb := orderKey(data.At(a, tail)), orderKey(data.At(b, tail)); ka != kb {
							ordered = ka < kb
						}
					}
					for _, kc := range keyCols {
						if va, vb := data.At(a, kc.d), data.At(b, kc.d); va != vb {
							ordered = va < vb
							break
						}
					}
					if !ordered {
						t.Fatalf("%s/%d: rows %d, %d out of order in the tile at %d (tail column %d)", name, groupRows, a, b, lo, tail)
					}
				}
			}
			switch {
			case name == "osm" && groupRows < 2048 && (tails[0] == 0 || tails[1] == 0):
				t.Errorf("osm/%d: tail columns by tile %v; lon and lat must each be the widest somewhere", groupRows, tails)
			case name == "specials" && (tails[1] == 0 || tails[2] != 0):
				t.Errorf("specials/%d: tail columns by tile %v; want the duplicate-heavy column, never the one reaching ±Inf", groupRows, tails)
			case name == "many-keys" && len(tails) == 1 && tails[-1] > 0:
				t.Errorf("many-keys/%d: no tile has a tail, with %d columns past the run key", groupRows, dims-len(keyCols))
			}
		}
	}
}

// TestClusterCollapsesLowCardinalityColumns: on the TPC-H stand-in the order
// turns dictionary-coded discrete columns into runs and shrinks the table.
func TestClusterCollapsesLowCardinalityColumns(t *testing.T) {
	data := dataset.TPCHLike(20000, 9).Project(4)
	arrival := FromDataset(data, nil, 2048)
	tab := NewBuilder(data, 2048).Build(shuffledRows(data.NumRows(), 2))
	if got, was := tab.EncodingCounts()["rle"], arrival.EncodingCounts()["rle"]; got <= was {
		t.Errorf("clustered table has %d RLE chunks, arrival order %d", got, was)
	}
	if got, was := tab.EncodedBytes(), arrival.EncodedBytes(); got >= was {
		t.Errorf("clustered table encodes to %d bytes, arrival order %d", got, was)
	}
}

// TestBuildAllMatchesBuild: one skewed set of partitions — a large one whose
// build fans out again on the shared pool, small ones, an empty one — builds,
// from two goroutines at once on one builder, into the tables and row orders
// Build gives each partition alone.
func TestBuildAllMatchesBuild(t *testing.T) {
	for name, data := range map[string]*dataset.Dataset{
		"osm":      dataset.OSMLike(12_000, 6, 5),
		"specials": specialsDataset(12_000),
	} {
		perm := shuffledRows(data.NumRows(), 3)
		parts := [][]int{perm[:300], perm[300:9300], nil, perm[9300:9310], perm[9310:]}
		want := make([][]byte, len(parts))
		wantRows := make([][]int, len(parts))
		for i, rows := range parts {
			wantRows[i] = slices.Clone(rows)
			var buf bytes.Buffer
			if err := NewBuilder(data, 64).Build(wantRows[i]).Encode(&buf); err != nil {
				t.Fatal(err)
			}
			want[i] = buf.Bytes()
		}
		b := NewBuilder(data, 64)
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				mine := make([][]int, len(parts))
				for i, rows := range parts {
					mine[i] = slices.Clone(rows)
				}
				b.BuildAll(mine, func(i int, tab *Table) {
					var buf bytes.Buffer
					if err := tab.Encode(&buf); err != nil {
						t.Error(err)
					}
					if !bytes.Equal(buf.Bytes(), want[i]) || !slices.Equal(mine[i], wantRows[i]) {
						t.Errorf("%s partition %d: BuildAll and Build disagree", name, i)
					}
				})
			}()
		}
		wg.Wait()
	}
}

// TestBuildDegeneratePartitions: empty and one-row partitions build.
func TestBuildDegeneratePartitions(t *testing.T) {
	data := dataset.Uniform(10, 2, 1)
	b := NewBuilder(data, 4)
	if tab := b.Build(nil); tab.NumRows() != 0 || tab.NumGroups() != 0 || tab.Dims() != 2 {
		t.Errorf("empty partition built %d rows in %d groups", tab.NumRows(), tab.NumGroups())
	}
	rows := []int{7}
	tab := b.Build(rows)
	if pts := tab.groupPoints(0); tab.NumRows() != 1 || rows[0] != 7 || !slices.Equal(pts[0], data.Point(7)) {
		t.Errorf("one-row partition built %d rows, order %v", tab.NumRows(), rows)
	}
}

// TestSelectSmallest checks the record selection against a full sort:
// duplicate-heavy keys, sorted, reversed and rising-then-falling arrivals,
// every boundary position, records of several widths.
func TestSelectSmallest(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(600)
		stride := 2 + rng.Intn(4)
		keyWord := 1 + rng.Intn(stride-1)
		card := 1 + rng.Intn(n)
		recs := make([]uint64, n*stride)
		for i := 0; i < n; i++ {
			recs[i*stride] = uint64(i)
			for w := 1; w < stride; w++ {
				recs[i*stride+w] = uint64(rng.Intn(card))
			}
			switch trial % 4 {
			case 1: // ascending
				recs[i*stride+keyWord] = uint64(i)
			case 2: // descending
				recs[i*stride+keyWord] = uint64(n - i)
			case 3: // rising, then falling
				recs[i*stride+keyWord] = uint64(min(i, n-i))
			}
		}
		want := slices.Clone(recs)
		sortRecords(want, stride, keyWord)
		for i := 1; i < n; i++ {
			a, b := want[(i-1)*stride:i*stride], want[i*stride:(i+1)*stride]
			if a[keyWord] > b[keyWord] || a[keyWord] == b[keyWord] && a[0] >= b[0] {
				t.Fatalf("trial %d: sortRecords left records %d, %d out of order", trial, i-1, i)
			}
		}
		k := rng.Intn(n + 1)
		selectSmallest(recs, stride, keyWord, k)
		// The two sides hold the right records, whole, in some order.
		for _, side := range [][2]int{{0, k}, {k, n}} {
			got, ref := map[uint64][]uint64{}, map[uint64][]uint64{}
			for i := side[0]; i < side[1]; i++ {
				got[recs[i*stride]] = recs[i*stride : (i+1)*stride]
				ref[want[i*stride]] = want[i*stride : (i+1)*stride]
			}
			if len(got) != side[1]-side[0] {
				t.Fatalf("trial %d: duplicate records after selection", trial)
			}
			for pos, r := range ref {
				if !slices.Equal(got[pos], r) {
					t.Fatalf("trial %d: n=%d k=%d: record %d on the wrong side or torn: %v vs %v", trial, n, k, pos, got[pos], r)
				}
			}
		}
	}
}

func TestOrderKeyRoundTripsAndOrders(t *testing.T) {
	vals := []float64{math.Inf(-1), -1e300, -2.5, -1, -math.SmallestNonzeroFloat64, math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, 1, 2.5, 1e300, math.Inf(1), math.NaN()}
	for i, v := range vals {
		if got := keyValue(orderKey(v)); math.Float64bits(got) != math.Float64bits(v) {
			t.Errorf("key round trip of %v gives %v", v, got)
		}
		if i > 0 && orderKey(vals[i-1]) >= orderKey(v) {
			t.Errorf("orderKey(%v) !< orderKey(%v)", vals[i-1], v)
		}
	}
}

// TestEncodeColumnChoosesSmallest pins the encoding chooser, shortcuts and
// all, to its specification: the smallest of raw / RLE / dictionary / FOR,
// computed here the slow way (sort, count), ties going to RLE, then
// dictionary, then FOR, then raw — no dictionary for a chunk holding a NaN,
// which a sorted dictionary cannot be searched past — and the chunk decodes to
// vals bit for bit.
func TestEncodeColumnChoosesSmallest(t *testing.T) {
	var sc encodeScratch
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(700)
		vals := fuzzDataset(seed, n, 1).Column(0)
		switch seed % 8 {
		case 4: // as many distinct values as a dictionary can hold and still win, or one more
			n = 50 + rng.Intn(240)
			vals = make([]float64, n)
			card := (7*n-4)/8 + int(seed/8%2)
			for i := range vals {
				vals[i] = float64(i%card)*1.37 + 0.1 // not integral steps: FOR does not apply
			}
			rng.Shuffle(n, func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
		case 5: // few values, integral: dictionary against FOR
			for i := range vals {
				vals[i] = float64(rng.Intn(1 + int(seed%200)))
			}
		case 6: // signed zeros and a NaN among duplicates
			for i := range vals {
				vals[i] = []float64{0, math.Copysign(0, -1), 1.5, math.NaN()}[rng.Intn(3+int(seed/8%2))]
			}
		case 7: // runs
			for i := range vals {
				vals[i] = float64(i / (1 + int(seed%40)))
			}
		}
		sorted := slices.Clone(vals)
		slices.Sort(sorted)
		card, runs, forOK := 1, 1, true
		hasNaN := slices.ContainsFunc(vals, math.IsNaN)
		for i := 1; i < n; i++ {
			if sorted[i] != sorted[i-1] {
				card++
			}
			if vals[i] != vals[i-1] {
				runs++
			}
		}
		maxDelta := 0.0
		for _, v := range vals {
			d := v - sorted[0]
			if !(d >= 0) || d != math.Trunc(d) || d >= 1<<32 || sorted[0]+d != v {
				forOK = false
			}
			maxDelta = max(maxDelta, d)
		}
		// Raw packs each value's order-key offset from the least key at the
		// bits the key range needs, 58–63 stored as 64.
		keys := make([]uint64, n)
		for i, v := range vals {
			keys[i] = orderKey(v)
		}
		rawBits := int64(bits.Len64(slices.Max(keys) - slices.Min(keys)))
		if rawBits > 57 {
			rawBits = 64
		}
		want, wantB := colRLE, int64(4+runs*12)
		w := int64(2)
		if card <= 256 {
			w = 1
		}
		if b := 4 + int64(card)*8 + w*int64(n); card <= dictMaxCard && !hasNaN && b < wantB {
			want, wantB = colDict, b
		}
		if forOK {
			if b := 9 + (int64(n)*int64(bits.Len64(uint64(maxDelta)))+7)/8; b < wantB {
				want, wantB = colFOR, b
			}
		}
		if b := 9 + (int64(n)*rawBits+7)/8; b < wantB {
			want, wantB = colRaw, b
		}
		c := encodeColumn(vals, &sc)
		if c.kind != want || c.payloadBytes() != wantB {
			t.Fatalf("seed %d (n=%d card=%d runs=%d): chose %v at %d bytes, smallest is %v at %d",
				seed, n, card, runs, c.kind, c.payloadBytes(), want, wantB)
		}
		got := make([]float64, n)
		c.decodeInto(got)
		for i, v := range vals {
			if got[i] != v && !(math.IsNaN(got[i]) && math.IsNaN(v)) || c.kind == colRaw && math.Float64bits(got[i]) != math.Float64bits(v) {
				t.Fatalf("seed %d: %v chunk decodes value %d as %v, want %v", seed, c.kind, i, got[i], v)
			}
		}
	}
}
