package colstore

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"paw/internal/dataset"
	"paw/internal/geom"
	"paw/internal/parbuild"
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
			tab := NewBuilder(data, data.Domain(), groupRows).Build(rows, nil)
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
				// The clustered table holds the arrival table's rows: what the
				// naive path decodes from each is the same multiset.
				pts, sst := tab.scanNaive(q)
				if sst.Matched != want || len(pts) != want {
					t.Fatalf("%s/%d q%d: clustered naive scan %d rows (%d points), want %d",
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

// TestClusterIsPureFunctionOfRowSet: the order depends on the row set and the
// workload only — not on the order the rows or the queries arrive in, not on
// scratch reuse — and the table order Build leaves in rows is the order of the
// table's rows.
func TestClusterIsPureFunctionOfRowSet(t *testing.T) {
	for name, data := range orderDatasets() {
		n := data.NumRows()
		b := NewBuilder(data, data.Domain(), 128)
		queries := testWorkload(data, 12, 3)
		// A proper subset, so source row indices and positions differ.
		var subset []int
		for r := 0; r < n; r++ {
			if r%3 != 1 {
				subset = append(subset, r)
			}
		}
		ref := slices.Clone(subset)
		refTab := b.Build(ref, queries)
		var refBytes bytes.Buffer
		if err := refTab.Encode(&refBytes); err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			rows := slices.Clone(subset)
			rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
			qs := slices.Clone(queries)
			rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
			tab := NewBuilder(data, data.Domain(), 128).Build(rows, qs)
			if !slices.Equal(rows, ref) {
				t.Fatalf("%s: table order depends on arrival order (seed %d)", name, seed)
			}
			var got bytes.Buffer
			if err := tab.Encode(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), refBytes.Bytes()) {
				t.Fatalf("%s: encoded table depends on the order of rows or queries (seed %d)", name, seed)
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

// TestBuildIsPureFunctionOfValues: a partition's bytes depend on its rows'
// values, the domain and the workload alone. Every order-test family and
// 20 000-row TPC-H, OSM and uniform 2-d sets, with and without a workload,
// build the same bytes from the dataset as from a copy with its rows
// permuted, and a subset of the rows builds the same bytes from the dataset
// as from a copy holding only those rows, in another order — which is how a
// drift rebuild reads a region back from the workers.
func TestBuildIsPureFunctionOfValues(t *testing.T) {
	families := orderDatasets()
	families["tpch-20k"] = dataset.TPCHLike(20_000, 11)
	families["osm-20k"] = dataset.OSMLike(20_000, 6, 12)
	families["uniform2-20k"] = dataset.Uniform(20_000, 2, 13)
	// copyOf returns a dataset holding data's rows in the order rows names.
	copyOf := func(data *dataset.Dataset, rows []int) *dataset.Dataset {
		cols := make([][]float64, data.Dims())
		for d := range cols {
			for _, r := range rows {
				cols[d] = append(cols[d], data.At(r, d))
			}
		}
		return dataset.MustNew(data.Names(), cols)
	}
	encode := func(data *dataset.Dataset, dom geom.Box, rows []int, queries []geom.Box) []byte {
		var buf bytes.Buffer
		if err := NewBuilder(data, dom, 64).Build(rows, queries).Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for name, data := range families {
		n, dom := data.NumRows(), data.Domain()
		perm := shuffledRows(n, 21)
		var subset []int
		for r := 0; r < n; r++ {
			if r%3 != 1 {
				subset = append(subset, r)
			}
		}
		held := copyOf(data, shuffledSubset(subset, 22))
		for _, queries := range [][]geom.Box{nil, testWorkload(data, 16, 23)} {
			if !bytes.Equal(encode(data, dom, identityRows(n), queries), encode(copyOf(data, perm), dom, identityRows(n), queries)) {
				t.Errorf("%s, %d queries: the rows permuted build other bytes", name, len(queries))
			}
			if !bytes.Equal(encode(data, dom, slices.Clone(subset), queries), encode(held, dom, identityRows(len(subset)), queries)) {
				t.Errorf("%s, %d queries: a copy holding only the partition's rows builds other bytes", name, len(queries))
			}
		}
	}
}

// identityRows returns 0, 1, …, n-1.
func identityRows(n int) []int {
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	return rows
}

// shuffledSubset returns rows in an order drawn from seed.
func shuffledSubset(rows []int, seed int64) []int {
	out := slices.Clone(rows)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// testWorkload draws n query boxes over data's domain, each a tenth to a
// half of it on every dimension (all of a dimension whose domain has no
// finite extent), from seed.
func testWorkload(data *dataset.Dataset, n int, seed int64) []geom.Box {
	rng := rand.New(rand.NewSource(seed))
	dom := data.Domain()
	qs := make([]geom.Box, n)
	for i := range qs {
		lo, hi := make(geom.Point, data.Dims()), make(geom.Point, data.Dims())
		for d := range lo {
			ext := dom.Hi[d] - dom.Lo[d]
			if !(ext >= 0) || math.IsInf(ext, 0) {
				lo[d], hi[d] = math.Inf(-1), math.Inf(1)
				continue
			}
			w := ext * (0.1 + 0.4*rng.Float64())
			lo[d] = dom.Lo[d] + rng.Float64()*(ext-w)
			hi[d] = lo[d] + w
		}
		qs[i] = geom.NewBox(lo, hi)
	}
	return qs
}

// compareRest orders rows a and b of data as the builder breaks ties: by
// recordHash of their keys, then by the keys, then by source row.
func compareRest(data *dataset.Dataset, a, b int) int {
	ka, kb := make([]uint64, data.Dims()), make([]uint64, data.Dims())
	for d := range ka {
		ka[d], kb[d] = orderKey(data.At(a, d)), orderKey(data.At(b, d))
	}
	if c := cmp.Compare(recordHash(ka), recordHash(kb)); c != 0 {
		return c
	}
	if c := slices.Compare(ka, kb); c != 0 {
		return c
	}
	return a - b
}

// lessOn is the (value, compareRest) total order the tiling splits on.
func lessOn(data *dataset.Dataset, d, a, b int) bool {
	ka, kb := orderKey(data.At(a, d)), orderKey(data.At(b, d))
	return ka < kb || ka == kb && compareRest(data, a, b) < 0
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
		st := tab.groups[g].stats
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
			tab := NewBuilder(data, data.Domain(), groupRows).Build(rows, nil)
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
					ordered := compareRest(data, a, b) < 0
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
	tab := NewBuilder(data, data.Domain(), 2048).Build(shuffledRows(data.NumRows(), 2), nil)
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
			if err := NewBuilder(data, data.Domain(), 64).Build(wantRows[i], nil).Encode(&buf); err != nil {
				t.Fatal(err)
			}
			want[i] = buf.Bytes()
		}
		b := NewBuilder(data, data.Domain(), 64)
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				mine := make([][]int, len(parts))
				for i, rows := range parts {
					mine[i] = slices.Clone(rows)
				}
				b.BuildAll(mine, nil, func(i int, tab *Table) {
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

// TestBuildIsWidthIndependent: a partition above every chunk threshold —
// its gather, census, rank words and top tile extents run in chunks at any
// width above one, and its tile halves and tiles fan out — builds into the
// same bytes and the same row order on pools of one to four workers, from
// rows arriving shuffled, under a workload. On "ramp" each chunk of the top
// extent pass sees only its share of the first column's range: a chunk's
// extent alone would make the second column the wider. "ramp" and "specials"
// have two tail columns or more, so the workload chooses their splits.
func TestBuildIsWidthIndependent(t *testing.T) {
	n := 4*parallelMinRows + 1234
	ramp, noise := make([]float64, n), make([]float64, n)
	rng := rand.New(rand.NewSource(52))
	for i := range ramp {
		ramp[i], noise[i] = float64(i), float64(rng.Intn(n*3/4))
	}
	for name, data := range map[string]*dataset.Dataset{
		"tpch":     dataset.TPCHLike(n, 9).Project(4),
		"specials": specialsDataset(n),
		"ramp":     dataset.MustNew([]string{"ramp", "noise"}, [][]float64{ramp, noise}),
	} {
		var want []byte
		var wantRows []int
		queries := testWorkload(data, 16, 4)
		for w := 1; w <= 4; w++ {
			b := NewBuilder(data, data.Domain(), 64)
			b.pool = parbuild.New(w)
			rows := shuffledRows(n, int64(w))
			var buf bytes.Buffer
			if err := b.Build(rows, queries).Encode(&buf); err != nil {
				t.Fatal(err)
			}
			if w == 1 {
				want, wantRows = buf.Bytes(), rows
				continue
			}
			if !bytes.Equal(buf.Bytes(), want) || !slices.Equal(rows, wantRows) {
				t.Fatalf("%s: %d workers build another table than one", name, w)
			}
		}
	}
}

// topSplit returns the dimension on which the first k of rows, in table
// order, all sort before the rest (-1: none), where k is the row count of the
// left half of the builder's top split.
func topSplit(data *dataset.Dataset, rows []int, groupRows int) int {
	k := (len(rows) + groupRows - 1) / groupRows / 2 * groupRows
	for d := range data.Dims() {
		maxL, minR := rows[0], rows[k]
		for _, r := range rows[:k] {
			if lessOn(data, d, maxL, r) {
				maxL = r
			}
		}
		for _, r := range rows[k:] {
			if lessOn(data, d, r, minR) {
				minR = r
			}
		}
		if lessOn(data, d, maxL, minR) {
			return d
		}
	}
	return -1
}

// TestWorkloadMovesTheSplit: in a partition with two tail columns — "wide",
// whose values span the domain, and "narrow", which spans half of it — a
// build without a workload splits on the widest, as before workloads reached
// the builder. With one, the split goes to the tail fewer queries cross at
// its cut, ties to the narrowest: a query that crosses neither cut, or only
// wide's, leaves the split on narrow, one that crosses only narrow's moves it
// to wide.
func TestWorkloadMovesTheSplit(t *testing.T) {
	const n, groupRows = 4096, 64
	rng := rand.New(rand.NewSource(57))
	wide, narrow := make([]float64, n), make([]float64, n)
	var rows []int
	for i := range wide {
		wide[i], narrow[i] = rng.Float64(), rng.Float64()
		if narrow[i] < 0.5 {
			rows = append(rows, i)
		}
	}
	data := dataset.MustNew([]string{"wide", "narrow"}, [][]float64{wide, narrow})
	for _, c := range []struct {
		name    string
		queries []geom.Box
		want    int
	}{
		{"no workload", nil, 0},
		// The cut on narrow falls near 0.25, the one on wide near 0.5; both
		// are estimated from a sample of √n rows, so the queries leave room.
		{"crossing neither", []geom.Box{geom.NewBox(geom.Point{0.02, 0.02}, geom.Point{0.1, 0.08})}, 1},
		{"crossing narrow", []geom.Box{geom.NewBox(geom.Point{0.02, 0.1}, geom.Point{0.1, 0.4})}, 0},
		{"crossing wide", []geom.Box{geom.NewBox(geom.Point{0.3, 0.02}, geom.Point{0.7, 0.08})}, 1},
		{"crossing both once, wide twice", []geom.Box{
			geom.NewBox(geom.Point{0.3, 0.1}, geom.Point{0.7, 0.4}),
			geom.NewBox(geom.Point{0.3, 0.02}, geom.Point{0.7, 0.08}),
		}, 1},
		{"crossing both twice, narrow thrice", []geom.Box{
			geom.NewBox(geom.Point{0.3, 0.1}, geom.Point{0.7, 0.4}),
			geom.NewBox(geom.Point{0.3, 0.1}, geom.Point{0.7, 0.4}),
			geom.NewBox(geom.Point{0.02, 0.1}, geom.Point{0.1, 0.4}),
		}, 0},
	} {
		got := slices.Clone(rows)
		NewBuilder(data, data.Domain(), groupRows).Build(got, c.queries)
		if d := topSplit(data, got, groupRows); d != c.want {
			t.Errorf("%s: the top split is on column %d, want %d", c.name, d, c.want)
		}
	}
}

// TestCutEstimateNearMedian: the cut leastCrossed weighs the queries against
// is estimated from at least minCutSample records sampled by their values, so
// on TestWorkloadMovesTheSplit's segment — 2 035 uniform records, cut at rank
// 1 024 — it lies within 0.05 of the exact median on both columns, and the
// sample is the same whatever order the records are in; a segment of at most
// minCutSample records is read whole.
func TestCutEstimateNearMedian(t *testing.T) {
	const n, groupRows = 4096, 64
	rng := rand.New(rand.NewSource(57))
	var recs []uint64
	for i := 0; i < n; i++ {
		wide, narrow := rng.Float64(), rng.Float64()
		if narrow < 0.5 {
			recs = append(recs, uint64(len(recs)/3), orderKey(wide), orderKey(narrow))
		}
	}
	rows := len(recs) / 3
	k := (rows + groupRows - 1) / groupRows / 2 * groupRows
	estimate := func(recs []uint64, word, k int) (uint64, []uint64) {
		var at [maxPivotSample]int32
		var keys []uint64
		for _, r := range sampleByValue(recs, 3, &at) {
			keys = append(keys, recs[int(r)*3+word])
		}
		slices.Sort(keys)
		return keys[k*len(keys)/(len(recs)/3)], keys
	}
	for word := 1; word <= 2; word++ {
		all := sortedKeys(recs, word)
		got, keys := estimate(recs, word, k)
		if len(keys) < minCutSample {
			t.Errorf("column %d: %d keys sampled, want at least %d", word, len(keys), minCutSample)
		}
		if exact := keyValue(all[k]); math.Abs(keyValue(got)-exact) > 0.05 {
			t.Errorf("column %d of %d records: estimated cut %.3f, the key of rank %d is %.3f", word, rows, keyValue(got), k, exact)
		}
		reversed := slices.Clone(recs)
		for i, j := 0, rows-1; i < j; i, j = i+1, j-1 {
			swapRecords(reversed, 3, i, j)
		}
		if _, again := estimate(reversed, word, k); !slices.Equal(again, keys) {
			t.Errorf("column %d: the records reversed sample other keys", word)
		}
		if got, _ := estimate(recs[:200*3], word, 64); got != sortedKeys(recs[:200*3], word)[64] {
			t.Errorf("column %d, 200 records: the estimate is not the key of rank 64", word)
		}
	}
}

// sortedKeys returns word word of every 3-word record of recs, ascending.
func sortedKeys(recs []uint64, word int) []uint64 {
	var keys []uint64
	for i := word; i < len(recs); i += 3 {
		keys = append(keys, recs[i])
	}
	slices.Sort(keys)
	return keys
}

// TestOneTailIgnoresTheWorkload: in a partition whose columns are all run
// keys but one — every TPC-H partition: quantity, discount and tax hold a few
// dozen values, price is the tail — a workload changes no byte.
func TestOneTailIgnoresTheWorkload(t *testing.T) {
	data := dataset.TPCHLike(6000, 3).Project(4)
	var want bytes.Buffer
	if err := NewBuilder(data, data.Domain(), 64).Build(shuffledRows(data.NumRows(), 1), nil).Encode(&want); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := NewBuilder(data, data.Domain(), 64).Build(shuffledRows(data.NumRows(), 1), testWorkload(data, 24, 5)).Encode(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("a one-tail partition built with a workload differs from the one built without")
	}
}

// TestNoWorkloadKeepsTheOrder: without queries, a partition with two tail
// columns is tiled on the widest dimension at every split, as before the
// builder took a workload: the literal is the table's digest recorded on the
// parent of that change, re-recorded when ties began to break on values,
// and an empty workload is no workload.
func TestNoWorkloadKeepsTheOrder(t *testing.T) {
	data := dataset.OSMLike(20_000, 6, 5)
	for _, queries := range [][]geom.Box{nil, {}} {
		var buf bytes.Buffer
		if err := NewBuilder(data, data.Domain(), 64).Build(shuffledRows(data.NumRows(), 9), queries).Encode(&buf); err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(buf.Bytes()); hex.EncodeToString(sum[:8]) != "8595c7b90936cba8" {
			t.Errorf("workload %v: table digest %x, want 8595c7b90936cba8", queries, sum[:8])
		}
	}
}

// TestBuilderExtentsMatchDomain: the builder's per-column extents are those
// of the domain it is handed — here the dataset's, on NaNs of either sign,
// both zeros and a column reaching ±Inf, which has no extent.
func TestBuilderExtentsMatchDomain(t *testing.T) {
	data := specialsDataset(5000)
	dom := data.Domain()
	b := NewBuilder(data, data.Domain(), 64)
	for d := range data.Dims() {
		want := 0.0
		if ext := dom.Hi[d] - dom.Lo[d]; ext > 0 && !math.IsInf(ext, 0) {
			want = 1 / ext
		}
		if math.Float64bits(b.invExtent[d]) != math.Float64bits(want) {
			t.Errorf("column %d: invExtent %v, want %v", d, b.invExtent[d], want)
		}
	}
	if b.invExtent[2] != 0 {
		t.Errorf("the column reaching ±Inf has invExtent %v, want 0", b.invExtent[2])
	}
}

// TestBuildDegeneratePartitions: empty and one-row partitions build.
func TestBuildDegeneratePartitions(t *testing.T) {
	data := dataset.Uniform(10, 2, 1)
	b := NewBuilder(data, data.Domain(), 4)
	if tab := b.Build(nil, nil); tab.NumRows() != 0 || tab.NumGroups() != 0 || tab.Dims() != 2 {
		t.Errorf("empty partition built %d rows in %d groups", tab.NumRows(), tab.NumGroups())
	}
	rows := []int{7}
	tab := b.Build(rows, nil)
	if pts := tab.groupPoints(0); tab.NumRows() != 1 || rows[0] != 7 || !slices.Equal(pts[0], data.Point(7)) {
		t.Errorf("one-row partition built %d rows, order %v", tab.NumRows(), rows)
	}
}

// TestSelectSmallest checks the record selection against a full sort —
// afterwards the first k records are exactly the k smallest, and every record
// is intact — on duplicate-heavy keys, sorted, reversed and rising-then-falling
// arrivals, every boundary position and records of several widths. Small
// trials stay inside the last two blocks of the block partition; the large
// ones (~70 000 records, as a benchmark partition reaches) run its block loop
// at every level, on random keys, on the three arrival patterns, and on
// constant and two-valued keys, where the other words and positions order the
// records — arriving in order or shuffled. The last trials put k near either end and in the
// middle, where the sampled pivot is moved to either side of it.
func TestSelectSmallest(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	trial := func(name string, n, stride, keyWord, k int, key func(i int) uint64, shuffle bool) {
		t.Helper()
		recs := make([]uint64, n*stride)
		for i := 0; i < n; i++ {
			recs[i*stride] = uint64(i)
			for w := 1; w < stride; w++ {
				recs[i*stride+w] = rng.Uint64()
			}
			recs[i*stride+keyWord] = key(i)
		}
		for i := n - 1; shuffle && i > 0; i-- {
			j := rng.Intn(i + 1)
			recs[i*stride], recs[j*stride] = recs[j*stride], recs[i*stride]
		}
		want := slices.Clone(recs)
		sortRecords(want, stride, keyWord)
		for i := 1; i < n; i++ {
			if compareRecords(want[(i-1)*stride:i*stride], want[i*stride:(i+1)*stride], keyWord) >= 0 {
				t.Fatalf("%s: sortRecords left records %d, %d out of order", name, i-1, i)
			}
		}
		selectSmallest(recs, stride, keyWord, k)
		// The two sides hold the right records, whole, in some order: in
		// position order they are the sorted sides.
		for _, side := range [][2]int{{0, k}, {k, n}} {
			got, ref := recs[side[0]*stride:side[1]*stride], want[side[0]*stride:side[1]*stride]
			sortRecords(got, stride, 0)
			sortRecords(ref, stride, 0)
			if !slices.Equal(got, ref) {
				t.Fatalf("%s: n=%d k=%d: a record is on the wrong side, torn or duplicated", name, n, k)
			}
		}
	}
	for i := 0; i < 300; i++ {
		n := 1 + rng.Intn(600)
		stride := 2 + rng.Intn(4)
		card := 1 + rng.Intn(n)
		key := func(int) uint64 { return uint64(rng.Intn(card)) }
		switch i % 4 {
		case 1: // ascending
			key = func(j int) uint64 { return uint64(j) }
		case 2: // descending
			key = func(j int) uint64 { return uint64(n - j) }
		case 3: // rising, then falling
			key = func(j int) uint64 { return uint64(min(j, n-j)) }
		}
		trial(fmt.Sprintf("small trial %d", i), n, stride, 1+rng.Intn(stride-1), rng.Intn(n+1), key, i%8 == 0)
	}
	const n = 70_001
	for _, c := range []struct {
		name string
		key  func(i int) uint64
	}{
		{"random", func(int) uint64 { return rng.Uint64() }},
		{"ascending", func(i int) uint64 { return uint64(i) }},
		{"descending", func(i int) uint64 { return uint64(n - i) }},
		{"rising-falling", func(i int) uint64 { return uint64(min(i, n-i)) }},
		{"constant", func(int) uint64 { return 7 }},
		{"two-valued", func(int) uint64 { return uint64(rng.Intn(2)) }},
	} {
		for _, stride := range []int{3, 5} {
			k := (n / 2048 / 2) * 2048
			if c.name == "two-valued" {
				k = n/2 + rng.Intn(n/4) // inside one key's records
			}
			shuffle := stride == 5
			trial(fmt.Sprintf("%s n=%d stride=%d shuffled %v", c.name, n, stride, shuffle), n, stride, 1+rng.Intn(stride-1), k, c.key, shuffle)
		}
	}
	// The sampled pivot with k one record and one row group in from either
	// end, where it is moved to the far side of k, and in the middle; on
	// ascending, descending, all-equal and two-valued keys (one value
	// alternating, or one in fifty), where the other words rank most of the sample.
	const m = 10_000
	for _, c := range []struct {
		name string
		key  func(i int) uint64
	}{
		{"ascending", func(i int) uint64 { return uint64(i) }},
		{"descending", func(i int) uint64 { return uint64(m - i) }},
		{"all-equal", func(int) uint64 { return 3 }},
		{"alternating", func(i int) uint64 { return uint64(i % 2) }},
		{"one-in-fifty", func(i int) uint64 { return uint64(min(1, i%50)) }},
	} {
		for _, k := range []int{1, 2048, m / 2, m - 2048, m - 1} {
			for _, shuffle := range []bool{false, true} {
				trial(fmt.Sprintf("%s n=%d k=%d shuffled %v", c.name, m, k, shuffle), m, 3, 1+rng.Intn(2), k, c.key, shuffle)
			}
		}
	}
}

// TestRadixSortAboveMatchesSort: the tile sort's radix sort equals
// slices.Sort on words whose low bits ascend with the index — all words equal
// above them, a few distinct values, single varying bytes and bits, and
// random words — at tile sizes up to past a row group's, on one reused buffer.
func TestRadixSortAboveMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	var buf []uint64
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(2100)
		if trial%10 == 0 {
			n = 1 + rng.Intn(8)
		}
		skip := bits.Len(uint(n - 1))
		base := rng.Uint64()
		high := func() uint64 { return rng.Uint64() }
		switch trial % 5 {
		case 1: // equal above the index
			high = func() uint64 { return base }
		case 2: // a few distinct values
			vals := []uint64{rng.Uint64(), rng.Uint64(), rng.Uint64()}
			high = func() uint64 { return vals[rng.Intn(len(vals))] }
		case 3: // one byte varies
			sh := uint(8 * rng.Intn(8))
			high = func() uint64 { return base&^(0xff<<sh) | uint64(rng.Intn(256))<<sh }
		case 4: // one bit varies, perhaps the lowest above the index
			bit := uint(skip + rng.Intn(64-skip))
			if rng.Intn(2) == 0 {
				bit = uint(skip)
			}
			high = func() uint64 { return base&^(1<<bit) | uint64(rng.Intn(2))<<bit }
		}
		words := make([]uint64, n)
		for i := range words {
			words[i] = high()>>uint(skip)<<uint(skip) | uint64(i)
		}
		want := slices.Clone(words)
		slices.Sort(want)
		radixSortAbove(words, skip, &buf)
		if !slices.Equal(words, want) {
			t.Fatalf("trial %d (n=%d, skip=%d): radix order differs from slices.Sort", trial, n, skip)
		}
	}
}

// takeBySearch is the census as it was before the hash table: a binary search
// of the ascending distinct keys per record and an insertion per new key.
// TestCensusMatchesSearch holds take to it.
func takeBySearch(c *columnCensus, recs []uint64, stride, keyWord int) {
	c.vals, c.first = c.vals[:0], c.first[:0]
	n := len(recs) / stride
	c.codes = make([]uint8, n)
	for i := range c.codes {
		k := recs[i*stride+keyWord]
		lo, _ := slices.BinarySearch(c.vals, k)
		if lo == len(c.vals) || c.vals[lo] != k {
			if len(c.vals) == runKeyCap {
				c.vals = append(c.vals, k)
				return
			}
			c.first = slices.Insert(c.first, lo, uint8(len(c.vals)))
			c.vals = slices.Insert(c.vals, lo, k)
		}
		c.codes[i] = c.first[lo]
	}
}

// TestCensusMatchesSearch: the hashed census gives the binary-search census's
// result — how many distinct keys, the first-seen number of every record's
// key, and the first-seen number of each key in key order — at 255, 256 and
// 257 distinct keys (257 abandons), on keys that all hash to one slot or to
// the table's last slots (probes wrap), on ±0 and NaNs, and on long runs of
// one key (the last-key shortcut).
func TestCensusMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	// Keys whose home slot is the same, and keys whose home slots are the
	// last two, found by search.
	var oneSlot, lastSlots []uint64
	for i := 0; len(oneSlot) < 300 || len(lastSlots) < 300; i++ {
		k := orderKey(float64(i))
		switch censusSlot(k) {
		case censusSlot(orderKey(0)):
			oneSlot = append(oneSlot, k)
		case 1<<censusBits - 1, 1<<censusBits - 2:
			lastSlots = append(lastSlots, k)
		}
	}
	specials := []uint64{orderKey(0), orderKey(math.Copysign(0, -1)), orderKey(math.NaN()),
		orderKey(-math.NaN()), orderKey(math.Inf(1)), orderKey(math.Inf(-1)), 0, ^uint64(0)}
	pools := map[string]func(distinct int) []uint64{
		"random": func(distinct int) []uint64 {
			keys := make([]uint64, distinct)
			for i := range keys {
				keys[i] = orderKey(rng.NormFloat64())
			}
			return keys
		},
		"one-slot":   func(distinct int) []uint64 { return oneSlot[:distinct] },
		"last-slots": func(distinct int) []uint64 { return lastSlots[:distinct] },
		"specials": func(distinct int) []uint64 {
			return append(slices.Clone(specials), oneSlot[:distinct-len(specials)]...)
		},
	}
	for name, pool := range pools {
		for _, distinct := range []int{1, 2, 9, 255, 256, 257, 300} {
			if name == "specials" && distinct < len(specials) {
				continue
			}
			keys := pool(distinct)
			for _, stride := range []int{3, 5} {
				for _, runs := range []bool{false, true} {
					n := distinct + rng.Intn(4000)
					recs := make([]uint64, n*stride)
					for i := 0; i < n; i++ {
						k := keys[rng.Intn(distinct)]
						switch {
						case i < distinct:
							k = keys[i] // every key occurs
						case runs:
							k = keys[(i/500)%distinct] // runs of 500
						}
						recs[i*stride] = uint64(i)
						recs[i*stride+1] = rng.Uint64()
						recs[i*stride+2] = k
					}
					if !runs {
						for i := n - 1; i > 0; i-- {
							j := rng.Intn(i + 1)
							recs[i*stride+2], recs[j*stride+2] = recs[j*stride+2], recs[i*stride+2]
						}
					}
					var got, want columnCensus
					got.take(recs, stride, 2)
					takeBySearch(&want, recs, stride, 2)
					what := fmt.Sprintf("%s, %d distinct, stride %d, runs %v", name, distinct, stride, runs)
					if len(got.vals) != len(want.vals) {
						t.Fatalf("%s: %d distinct keys counted, want %d", what, len(got.vals), len(want.vals))
					}
					if len(want.vals) > runKeyCap {
						continue // abandoned: only the count is read
					}
					if !slices.Equal(got.codes, want.codes) || !slices.Equal(got.first, want.first) {
						t.Fatalf("%s: codes or key order differ from the binary-search census", what)
					}
					vals := slices.Clone(got.vals)
					if slices.Sort(vals); !slices.Equal(vals, want.vals) {
						t.Fatalf("%s: distinct keys differ", what)
					}
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
// dictionary, then FOR, then raw, where a run ends at a change of bits and
// FOR must reconstruct every value's bits — no dictionary for a chunk holding a
// NaN, which a sorted dictionary cannot be searched past, or a -0, which it
// cannot tell from +0 — and the chunk decodes to vals bit for bit.
func TestEncodeColumnChoosesSmallest(t *testing.T) {
	var sc encodeScratch
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(700)
		vals := fuzzDataset(seed, n, 1).Column(0)
		switch seed % 8 {
		case 4: // as many distinct values as the dictionary probe counts before it gives up, or one more
			n = 50 + rng.Intn(240)
			vals = make([]float64, n)
			// Raw packs these (0.1 to some hundreds) at 56 bits, below RLE,
			// so the probe gives up at (9 + 7n - 5 - ⌈n/8⌉)/8 + 1 values.
			card := (4+7*n-(n+7)/8)/8 + int(seed/8%2)
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
		same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
		noDict := slices.ContainsFunc(vals, func(v float64) bool { return math.IsNaN(v) || same(v, math.Copysign(0, -1)) })
		for i := 1; i < n; i++ {
			if sorted[i] != sorted[i-1] {
				card++
			}
			if !same(vals[i], vals[i-1]) {
				runs++
			}
		}
		maxDelta := 0.0
		for _, v := range vals {
			d := v - sorted[0]
			if !(d >= 0) || d != math.Trunc(d) || d >= 1<<32 || !same(sorted[0]+d, v) {
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
		codeBits := int64(bits.Len64(uint64(card - 1)))
		if b := 5 + int64(card)*8 + (int64(n)*codeBits+7)/8; !noDict && b < wantB {
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
			if !same(got[i], v) {
				t.Fatalf("seed %d: %v chunk decodes value %d as %v, want %v", seed, c.kind, i, got[i], v)
			}
		}
	}
}

// TestSignedZerosSurviveEncoding: every encoding is exact, so a chunk of -0s
// and +0s decodes to the same zeros, sign for sign — the three shapes below
// were a dictionary, a FOR chunk and a 0-bit FOR chunk that decoded every -0
// as +0 or every +0 as -0 when runs, FOR and the dictionary probe compared
// values as floats, where -0 == +0.
func TestSignedZerosSurviveEncoding(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cycle := func(vs ...float64) []float64 {
		out := make([]float64, 1024)
		for i := range out {
			out[i] = vs[i%len(vs)]
		}
		return out
	}
	halves := make([]float64, 1024)
	for i := range halves[:512] {
		halves[i] = negZero
	}
	var sc encodeScratch
	for _, c := range []struct {
		name string
		vals []float64
	}{
		{"four values", cycle(negZero, 0, 1.5, 2.25)},
		{"integers", cycle(negZero, 0, 1, 2, 3, 4, 5, 6, 7)},
		{"two runs", halves},
	} {
		col := encodeColumn(c.vals, &sc)
		got := make([]float64, len(c.vals))
		col.decodeInto(got)
		wrong := 0
		for i, v := range c.vals {
			wrong += b2i(math.Float64bits(got[i]) != math.Float64bits(v))
		}
		if wrong > 0 {
			t.Errorf("%s: %v chunk decodes %d of %d values with the wrong bits", c.name, col.kind, wrong, len(c.vals))
		}
	}
}
