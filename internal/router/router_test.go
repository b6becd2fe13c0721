package router

import (
	"testing"

	"paw/internal/dataset"
	"paw/internal/geom"
	"paw/internal/kdtree"
	"paw/internal/layout"
)

func setup(t *testing.T) (*Master, *dataset.Dataset, *layout.Layout) {
	t.Helper()
	data := dataset.Uniform(4000, 2, 1)
	rows := make([]int, 4000)
	for i := range rows {
		rows[i] = i
	}
	l := kdtree.Build(data, rows, data.Domain(), kdtree.Params{MinRows: 250})
	l.Route(data)
	m, err := NewMaster(l, []string{"x", "y"})
	if err != nil {
		t.Fatal(err)
	}
	return m, data, l
}

func TestRouteWhere(t *testing.T) {
	m, data, l := setup(t)
	plan, err := m.RouteSQL("SELECT * FROM t WHERE x >= 0.2 AND x <= 0.4 AND y >= 0.2 AND y <= 0.4")
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Ranges) != 1 {
		t.Fatalf("ranges = %d", len(plan.Ranges))
	}
	ids := plan.PartitionIDs()
	if len(ids) == 0 {
		t.Fatal("no partitions routed")
	}
	// The routed set must equal the layout's own answer.
	q := geom.Box{Lo: geom.Point{0.2, 0.2}, Hi: geom.Point{0.4, 0.4}}
	want := l.PartitionsFor(q)
	if len(ids) != len(want) {
		t.Fatalf("routed %v, want %v", ids, want)
	}
	for i := range ids {
		if ids[i] != want[i] {
			t.Fatalf("routed %v, want %v", ids, want)
		}
	}
	_ = data
}

func TestRouteSQLUnionOfSubqueries(t *testing.T) {
	m, _, l := setup(t)
	plan, err := m.RouteSQL("SELECT * FROM t WHERE x <= 0.1 OR x >= 0.9")
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Ranges) != 2 {
		t.Fatalf("expected 2 disjoint sub-queries, got %d", len(plan.Ranges))
	}
	ids := plan.PartitionIDs()
	// Union must be deduplicated and sorted.
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatal("partition IDs not sorted/deduplicated")
		}
	}
	// Every partition in each sub-plan must be in the union.
	seen := map[layout.ID]bool{}
	for _, id := range ids {
		seen[id] = true
	}
	for _, rp := range plan.Ranges {
		for _, id := range rp.Parts {
			if !seen[id] {
				t.Fatalf("partition %d missing from union", id)
			}
		}
	}
	_ = l
}

func TestRouteSQLNoWhere(t *testing.T) {
	m, _, l := setup(t)
	plan, err := m.RouteSQL("SELECT * FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(plan.PartitionIDs()); got != l.NumPartitions() {
		t.Errorf("full scan routes %d of %d partitions", got, l.NumPartitions())
	}
}

func TestRouteErrors(t *testing.T) {
	m, _, _ := setup(t)
	if _, err := m.RouteSQL("SELECT * FROM t WHERE zz >= 1"); err == nil {
		t.Error("unknown column must error")
	}
	if _, err := m.RouteRange(geom.UnitBox(3)); err == nil {
		t.Error("dimension mismatch must error")
	}
	if _, err := NewMaster(nil, nil); err == nil {
		t.Error("empty schema must error")
	}
}

func TestMemoryFootprint(t *testing.T) {
	m, data, l := setup(t)
	base := m.MemoryFootprint()
	if base <= 0 {
		t.Fatal("footprint must be positive")
	}
	if base >= data.TotalBytes() {
		t.Errorf("metadata %d not small next to data %d", base, data.TotalBytes())
	}
	// Installing precise descriptors grows the footprint by 16·dmax·Nmbr
	// per partition.
	for _, p := range l.Parts {
		p.Precise = []geom.Box{p.Desc.MBR(), p.Desc.MBR(), p.Desc.MBR()}
	}
	withPrecise := m.MemoryFootprint()
	wantDelta := int64(l.NumPartitions()) * 3 * 2 * 16
	if withPrecise-base != wantDelta {
		t.Errorf("precise descriptors added %d bytes, want %d", withPrecise-base, wantDelta)
	}
}
