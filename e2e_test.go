package paw

// End-to-end integration tests across the whole stack: data generation →
// layout construction (every method) → materialisation → SQL routing →
// partition scans → result verification against brute force,
// plus cross-module invariants checked with testing/quick-style random
// exploration.

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"paw/internal/blockstore"
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
				st, err := store.ScanAll(rp.Parts, rp.Range)
				if err != nil {
					t.Fatal(err)
				}
				rows += st.Matched
				want += data.CountInBox(rp.Range, nil)
			}
			if rows != want {
				t.Errorf("%s: %q returned %d rows, want %d", m, stmt, rows, want)
			}
		}
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
	byPart := l.RouteIndices(data)
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
			if selected[layout.ID(id)] {
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
