package colstore

import (
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

func TestScannerSteadyStateAllocs(t *testing.T) {
	data, tab := benchTable(20000)
	q := data.Domain()
	q.Lo[0], q.Hi[0] = 0.2, 0.6
	q.Lo[1], q.Hi[1] = 0.1, 0.8
	sc := NewScanner()
	sc.Count(tab, q)
	sc.Scan(tab, q)
	if n := testing.AllocsPerRun(50, func() { sc.Count(tab, q) }); n != 0 {
		t.Errorf("Count allocates %v/op in steady state, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() { sc.Scan(tab, q) }); n != 0 {
		t.Errorf("Scan allocates %v/op in steady state, want 0", n)
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

func TestZoneMapsSkipBeyondMinMax(t *testing.T) {
	// Two interleaved clusters per group: the min/max envelope spans both, so
	// a query for absent values inside the envelope cannot be pruned by SMA —
	// but the feature-vector zone map proves it empty.
	n := 4000
	col := make([]float64, n)
	for i := range col {
		if i%2 == 0 {
			col[i] = 0.1
		} else {
			col[i] = 0.9
		}
	}
	data := dataset.MustNew([]string{"x"}, [][]float64{col})
	tab := FromDataset(data, nil, 500)
	gap := geom.Box{Lo: geom.Point{0.4}, Hi: geom.Point{0.6}}
	st := tab.Count(gap)
	if st.Matched != 0 || st.GroupsRead == 0 {
		t.Fatalf("pre-zones: %+v (SMA should NOT prune the gap query)", st)
	}
	tab.BuildZoneMaps([]geom.Box{gap})
	st = tab.Count(gap)
	if st.Matched != 0 {
		t.Fatalf("zones changed the result: %+v", st)
	}
	if st.GroupsZoneSkipped != tab.NumGroups() || st.GroupsRead != 0 {
		t.Fatalf("zone maps must skip every group on the training query: %+v", st)
	}
	if st.BytesRead != 0 || st.BytesSkipped != tab.EncodedBytes() {
		t.Fatalf("zone skip byte accounting: %+v vs encoded %d", st, tab.EncodedBytes())
	}
	// A non-training query is unaffected by the zone maps.
	probe := geom.Box{Lo: geom.Point{0.0}, Hi: geom.Point{0.5}}
	if got := tab.Count(probe).Matched; got != n/2 {
		t.Fatalf("non-training query matched %d, want %d", got, n/2)
	}
	// SetZoneMaps validates shapes.
	if err := tab.SetZoneMaps([]geom.Box{gap}, make([][]uint64, 1)); err == nil {
		t.Fatal("SetZoneMaps must reject a vector-count mismatch")
	}
	if err := tab.SetZoneMaps([]geom.Box{gap}, [][]uint64{{0}, {0}, {0}, {0}, {0}, {0}, {0}, {0}}); err != nil {
		t.Fatalf("SetZoneMaps rejected valid bits: %v", err)
	}
	if err := tab.SetZoneMaps(nil, nil); err != nil || tab.ZoneMapQueries() != nil {
		t.Fatal("empty workload must clear zone maps")
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
	// neither pruned nor covered and filterAll fills every position at once.
	const wide = 5000
	raw := make([]float64, wide)
	for i := range raw {
		raw[i] = float64(i % 10)
	}
	oneRun := &Table{names: []string{"a", "b"}, rows: wide, groups: []rowGroup{newRowGroup(
		[]column{
			{kind: colRLE, n: wide, runVals: []float64{5}, runLens: []uint32{wide}},
			{kind: colRaw, n: wide, raw: raw},
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
