package paw

// End-to-end integration tests across the whole stack: data generation →
// layout construction (every method) → materialisation → SQL routing →
// simulated cluster execution → result verification against brute force,
// plus cross-module invariants checked with testing/quick-style random
// exploration.

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"paw/internal/blockstore"
	"paw/internal/cluster"
	"paw/internal/colstore"
	"paw/internal/geom"
	"paw/internal/layout"
	"paw/internal/workload"
)

// TestEndToEndSQLAllMethods drives the full Fig. 4 pipeline for every
// partitioning method and verifies the returned row counts against direct
// dataset scans.
func TestEndToEndSQLAllMethods(t *testing.T) {
	data := GenerateTPCH(30_000, 101)
	hist := UniformWorkload(data.Domain(), 30, 102)
	statements := []string{
		"SELECT * FROM t WHERE l_quantity >= 10 AND l_quantity <= 20",
		"SELECT * FROM t WHERE l_shipdate BETWEEN 100 AND 900 AND l_discount >= 0.05",
		"SELECT * FROM t WHERE l_quantity <= 3 OR l_quantity >= 48",
		"SELECT * FROM t WHERE NOT (l_tax > 0.02) AND l_suppkey <= 50000",
	}
	for _, m := range []Method{MethodPAW, MethodQdTree, MethodKdTree} {
		l, err := Build(data, hist, Options{
			Method: m, MinRows: 10, SampleRows: 3_000,
			Delta: FractionOfDomain(data.Domain(), 0.0005),
		})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		store := blockstore.Materialize(l, data, blockstore.Config{GroupRows: 256})
		clus := cluster.New(cluster.Defaults(), store, l)
		master, err := NewMaster(l, data.Names())
		if err != nil {
			t.Fatal(err)
		}
		for _, stmt := range statements {
			plan, err := master.RouteSQL(stmt)
			if err != nil {
				t.Fatalf("%s: %q: %v", m, stmt, err)
			}
			rows := 0
			want := 0
			for _, rp := range plan.Ranges {
				res, err := clus.Query(rp.Range, rp.Parts)
				if err != nil {
					t.Fatal(err)
				}
				rows += res.Rows
				want += data.CountInBox(rp.Range, nil)
			}
			if rows != want {
				t.Errorf("%s: %q returned %d rows, want %d", m, stmt, rows, want)
			}
		}
	}
}

// TestEndToEndZoneMapScans materialises a store with feature-vector zone
// maps trained on the workload and verifies, for every training query, that
// the stored scan counts still equal the brute-force dataset counts, that the
// per-partition byte accounting invariant holds, and that the zone maps
// actually skip row groups somewhere (they are exact on training queries).
func TestEndToEndZoneMapScans(t *testing.T) {
	data := GenerateTPCH(25_000, 113)
	hist := UniformWorkload(data.Domain(), 25, 114)
	l, err := Build(data, hist, Options{
		Method: MethodPAW, MinRows: 10, SampleRows: 2_500,
		Delta: FractionOfDomain(data.Domain(), 0.0005),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Zone maps are trained on the layout's own workload — whose queries PAW
	// has already aligned the partitions to — and on queries the layout never
	// saw: slabs around data rows, which cut through partitions and their
	// row groups and match a few percent of the table each.
	train := hist.Boxes()
	dom := data.Domain()
	for j := 0; j < 25; j++ {
		q := dom.Clone()
		for _, d := range []int{j % len(q.Lo), (j + 3) % len(q.Lo)} {
			v, w := data.At(j*997, d), (dom.Hi[d]-dom.Lo[d])/10
			q.Lo[d], q.Hi[d] = v-w, v+w
		}
		train = append(train, q)
	}
	// Row groups far smaller than a partition, so that zone bits are per tile
	// of a multi-group table and the order they are taken in matters.
	plain := blockstore.Materialize(l, data, blockstore.Config{GroupRows: 32})
	zoned := blockstore.Materialize(l, data, blockstore.Config{
		GroupRows: 32, ZoneQueries: train,
	})
	zoneSkips := 0
	for _, q := range train {
		ids := l.PartitionsFor(q)
		want := data.CountInBox(q, nil)
		pst, err := plain.ScanAll(ids, q)
		if err != nil {
			t.Fatal(err)
		}
		zst, err := zoned.ScanAll(ids, q)
		if err != nil {
			t.Fatal(err)
		}
		if pst.Matched != want || zst.Matched != want {
			t.Fatalf("query %v: plain %d / zoned %d rows, want %d", q, pst.Matched, zst.Matched, want)
		}
		if zst.BytesRead > pst.BytesRead {
			t.Fatalf("query %v: zone maps increased bytes read (%d > %d)", q, zst.BytesRead, pst.BytesRead)
		}
		zoneSkips += zst.GroupsZoneSkipped
		// Per-partition accounting: every encoded byte is either read or skipped.
		for _, id := range ids {
			st, err := zoned.ScanPartition(id, q)
			if err != nil {
				t.Fatal(err)
			}
			p, err := zoned.Partition(id)
			if err != nil {
				t.Fatal(err)
			}
			if st.BytesRead+st.BytesSkipped != p.Table.EncodedBytes() {
				t.Fatalf("partition %d: read %d + skipped %d != encoded %d",
					id, st.BytesRead, st.BytesSkipped, p.Table.EncodedBytes())
			}
		}
	}
	if zoneSkips == 0 {
		t.Error("zone maps never skipped a row group across the training workload")
	}

	// The store builds zone bits from source rows, walked in the table's
	// clustered order — which is not the order the rows arrive in. Bits taken
	// in any other order still answer training queries wrongly only by luck,
	// so pin them to the oracle: the bits the table's own row groups yield
	// when probed through the scan kernel must give identical scans.
	byPart := l.RouteIndices(data, allRows(data.NumRows()))
	reordered := 0
	for _, p := range l.Parts {
		sp, err := zoned.Partition(p.ID)
		if err != nil {
			t.Fatal(err)
		}
		arrival := byPart[p.ID]
		for i, pt := range sp.Table.GroupPoints(0) {
			if !slices.Equal(pt, data.Point(arrival[i])) {
				reordered++
				break
			}
		}
		pp, err := plain.Partition(p.ID)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := pp.Table.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		probed, err := colstore.Decode(&buf)
		if err != nil {
			t.Fatal(err)
		}
		probed.BuildZoneMaps(train)
		for _, q := range train {
			got, err := zoned.ScanPartition(p.ID, q)
			if err != nil {
				t.Fatal(err)
			}
			if want := probed.Count(q); got != want {
				t.Fatalf("partition %d query %v: zone maps from source rows scan %+v, probed from the table %+v", p.ID, q, got, want)
			}
		}
	}
	if reordered == 0 {
		t.Error("no partition's table order differs from arrival order: the case is vacuous")
	}
}

// TestLayoutPersistenceThroughFacade saves a PAW layout (with plugins) and
// reloads it, verifying the reloaded master routes identically.
func TestLayoutPersistenceThroughFacade(t *testing.T) {
	data := GenerateOSM(20_000, 8, 103).Normalize()
	hist := SkewedWorkload(data.Domain(), 30, 104)
	delta := FractionOfDomain(data.Domain(), 0.01)
	l, err := Build(data, hist, Options{Method: MethodPAW, MinRows: 8, SampleRows: 2_000, Delta: delta})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := InstallPreciseDescriptors(l, data, 3); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := l.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := layout.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	fut := FutureWorkload(hist, delta, 1, 105)
	for _, q := range fut.Boxes() {
		a, b := l.PartitionsFor(q), got.PartitionsFor(q)
		if len(a) != len(b) {
			t.Fatalf("routing diverged after reload: %v vs %v", a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("routing diverged after reload: %v vs %v", a, b)
			}
		}
		if l.QueryCost(q, nil) != got.QueryCost(q, nil) {
			t.Fatalf("cost diverged after reload for %v", q)
		}
	}
}

// TestQuickCostDominatesLowerBound: for random layouts and random queries,
// the cost model never undercuts the exact result size.
func TestQuickCostDominatesLowerBound(t *testing.T) {
	data := GenerateTPCH(10_000, 106).Project(3).Normalize()
	hist := UniformWorkload(data.Domain(), 20, 107)
	l, err := Build(data, hist, Options{MinRows: 20, SampleRows: 2_000, Delta: FractionOfDomain(data.Domain(), 0.01)})
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b, c, d, e, g float64) bool {
		q := boxFromRaw(3, []float64{a, b, c}, []float64{d, e, g})
		return l.QueryCost(q, nil) >= layout.LowerBoundBytes(data, q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickRoutedSetCoversResults: every row matching a random query lives
// in a partition the master selects.
func TestQuickRoutedSetCoversResults(t *testing.T) {
	data := GenerateTPCH(8_000, 108).Project(2).Normalize()
	hist := UniformWorkload(data.Domain(), 15, 109)
	l, err := Build(data, hist, Options{MinRows: 10, SampleRows: 1_600, Delta: FractionOfDomain(data.Domain(), 0.02)})
	if err != nil {
		t.Fatal(err)
	}
	byPart := l.RouteIndices(data, allRows(data.NumRows()))
	rng := rand.New(rand.NewSource(110))
	for iter := 0; iter < 200; iter++ {
		lo := geom.Point{rng.Float64(), rng.Float64()}
		hi := geom.Point{lo[0] + rng.Float64()*0.2, lo[1] + rng.Float64()*0.2}
		q := geom.Box{Lo: lo, Hi: hi}
		selected := map[layout.ID]bool{}
		for _, id := range l.PartitionsFor(q) {
			selected[id] = true
		}
		for id, rows := range byPart {
			if selected[id] {
				continue
			}
			for _, r := range rows {
				if data.RowInBox(r, q) {
					t.Fatalf("row %d matches %v but its partition %d was not selected", r, q, id)
				}
			}
		}
	}
}

// TestQuickLemma1Dominance: random δ-similar future workloads never cost
// more on average than the extended worst-case workload, for every method's
// layout.
func TestQuickLemma1Dominance(t *testing.T) {
	data := GenerateTPCH(12_000, 111).Project(3).Normalize()
	dom := data.Domain()
	hist := UniformWorkload(dom, 20, 112)
	delta := FractionOfDomain(dom, 0.015)
	l, err := Build(data, hist, Options{MinRows: 15, SampleRows: 2_400, Delta: delta})
	if err != nil {
		t.Fatal(err)
	}
	worst := l.AvgCost(hist.Extend(delta).Boxes(), nil)
	for seed := int64(0); seed < 20; seed++ {
		fut := workload.Future(hist, delta, 1+int(seed%3), 200+seed)
		if got := l.AvgCost(fut.Boxes(), nil); got > worst+1e-6 {
			t.Fatalf("seed %d: future avg cost %v exceeds worst-case %v", seed, got, worst)
		}
	}
}

// boxFromRaw builds a well-formed query box in [0,1]^dims from arbitrary
// float inputs (quick feeds anything, including NaN).
func boxFromRaw(dims int, lo, hi []float64) geom.Box {
	q := geom.Box{Lo: make(geom.Point, dims), Hi: make(geom.Point, dims)}
	for d := 0; d < dims; d++ {
		a, b := sanitize(lo[d]), sanitize(hi[d])
		if a > b {
			a, b = b, a
		}
		q.Lo[d], q.Hi[d] = a, b
	}
	return q
}

func sanitize(x float64) float64 {
	if x != x || x > 1e300 || x < -1e300 { // NaN or huge
		return 0.5
	}
	// Fold into [0, 1].
	if x < 0 {
		x = -x
	}
	for x > 1 {
		x /= 10
	}
	return x
}
