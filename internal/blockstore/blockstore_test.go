package blockstore

import (
	"bytes"
	"runtime"
	"testing"

	"paw/internal/colstore"
	"paw/internal/dataset"
	"paw/internal/kdtree"
	"paw/internal/layout"
	"paw/internal/workload"
)

func allRows(n int) []int {
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	return rows
}

func TestMaterialize(t *testing.T) {
	data := dataset.Uniform(4000, 2, 1)
	l := kdtree.Build(data, allRows(4000), data.Domain(), kdtree.Params{MinRows: 200})
	s := Materialize(l, data, Config{BlockBytes: 1 << 12, GroupRows: 64})
	if s.NumPartitions() != l.NumPartitions() {
		t.Fatalf("stored %d partitions, layout has %d", s.NumPartitions(), l.NumPartitions())
	}
	if s.BytesWritten != data.TotalBytes() {
		t.Errorf("bytes written = %d, want %d", s.BytesWritten, data.TotalBytes())
	}
	if s.SimWriteTime <= 0 || s.RoutingTime <= 0 {
		t.Errorf("timings not recorded: write=%v route=%v", s.SimWriteTime, s.RoutingTime)
	}
	// Block accounting: every partition occupies >= 1 block, and total
	// blocks >= totalBytes/blockSize.
	minBlocks := int(data.TotalBytes() / (1 << 12))
	if got := s.TotalBlocks(); got < minBlocks {
		t.Errorf("total blocks = %d, want >= %d", got, minBlocks)
	}
	for _, p := range l.Parts {
		sp, err := s.Partition(p.ID)
		if err != nil {
			t.Fatal(err)
		}
		if sp.Bytes() != p.Bytes() {
			t.Errorf("partition %d stored %d bytes, layout says %d", p.ID, sp.Bytes(), p.Bytes())
		}
	}
}

func TestUnknownPartition(t *testing.T) {
	data := dataset.Uniform(500, 2, 2)
	l := kdtree.Build(data, allRows(500), data.Domain(), kdtree.Params{MinRows: 100})
	s := Materialize(l, data, Config{})
	if _, err := s.Partition(9999); err == nil {
		t.Error("unknown partition must error")
	}
	if _, err := s.ScanPartition(9999, data.Domain()); err == nil {
		t.Error("scan of unknown partition must error")
	}
}

// TestScanAgainstRouter: scanning exactly the partitions the master selects
// returns exactly the query's result rows, and ScanAll — one scanner for the
// whole list — reports what the same partitions report scanned one by one.
func TestScanAgainstRouter(t *testing.T) {
	data := dataset.Uniform(6000, 2, 3)
	l := kdtree.Build(data, allRows(6000), data.Domain(), kdtree.Params{MinRows: 200})
	s := Materialize(l, data, Config{GroupRows: 128})
	w := workload.Uniform(data.Domain(), workload.Defaults(30, 4))
	for _, q := range w.Boxes() {
		ids := l.PartitionsFor(q)
		st, err := s.ScanAll(ids, q)
		if err != nil {
			t.Fatal(err)
		}
		var sum colstore.ScanStats
		for _, id := range ids {
			one, err := s.ScanPartition(id, q)
			if err != nil {
				t.Fatal(err)
			}
			sum.Add(one)
		}
		if st != sum {
			t.Fatalf("ScanAll %+v != sum of ScanPartition %+v", st, sum)
		}
		if want := data.CountInBox(q, nil); st.Matched != want {
			t.Fatalf("scan matched %d rows, dataset has %d in %v", st.Matched, want, q)
		}
		// Row-group pruning never reads more than the nominal I/O cost.
		if st.BytesRead > l.QueryCost(q, nil) {
			t.Fatalf("scan read %d bytes, above nominal cost %d", st.BytesRead, l.QueryCost(q, nil))
		}
	}
}

func TestRowGroupPruningReducesBytes(t *testing.T) {
	data := dataset.Uniform(8000, 2, 5)
	l := kdtree.Build(data, allRows(8000), data.Domain(), kdtree.Params{MinRows: 2000})
	s := Materialize(l, data, Config{GroupRows: 64})
	w := workload.Uniform(data.Domain(), workload.Defaults(25, 6))
	var nominal, read int64
	for _, q := range w.Boxes() {
		ids := l.PartitionsFor(q)
		for _, id := range ids {
			p, _ := s.Partition(id)
			nominal += p.Bytes()
		}
		st, err := s.ScanAll(ids, q)
		if err != nil {
			t.Fatal(err)
		}
		read += st.BytesRead
	}
	if read >= nominal {
		t.Errorf("row-group pruning read %d of %d nominal bytes — no pruning at all", read, nominal)
	}
	t.Logf("row-group pruning: read %d / nominal %d (%.0f%%)", read, nominal, 100*float64(read)/float64(nominal))
}

// encodeStore serialises every partition table of a store, in ID order.
func encodeStore(t *testing.T, s *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	for id := 0; id < s.NumPartitions(); id++ {
		p, err := s.Partition(layout.ID(id))
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Table.Encode(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestMaterializeDeterministic: the parallel fan-out leaks no scheduling into
// the store. Encoded tables, zone maps included, and the byte and block totals
// are identical serial and parallel and from run to run. (`make race` also
// runs this package at -cpu 1,2.)
func TestMaterializeDeterministic(t *testing.T) {
	data := dataset.TPCHLike(60_000, 11).Project(4)
	l := kdtree.Build(data, data.Sample(6000, 12), data.Domain(), kdtree.Params{MinRows: 100})
	zone := workload.Uniform(data.Domain(), workload.Defaults(8, 13)).Boxes()
	cfg := Config{GroupRows: 256, ZoneQueries: zone}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ref := Materialize(l, data, cfg)
	want := encodeStore(t, ref)
	for _, procs := range []int{1, 2, 4, 4} {
		runtime.GOMAXPROCS(procs)
		s := Materialize(l, data, cfg)
		if s.BytesWritten != ref.BytesWritten || s.TotalBlocks() != ref.TotalBlocks() || s.SimWriteTime != ref.SimWriteTime {
			t.Fatalf("GOMAXPROCS=%d: wrote %d bytes / %d blocks, serial %d / %d",
				procs, s.BytesWritten, s.TotalBlocks(), ref.BytesWritten, ref.TotalBlocks())
		}
		if !bytes.Equal(encodeStore(t, s), want) {
			t.Fatalf("GOMAXPROCS=%d: encoded partitions differ from the serial store", procs)
		}
	}
}

// TestMaterializeRoutesOnce: the store's partitions hold exactly the rows the
// layout's own routing assigns them, and the routing pass sets the layout's
// partition sizes.
func TestMaterializeRoutesOnce(t *testing.T) {
	data := dataset.OSMLike(20_000, 5, 14)
	l := kdtree.Build(data, data.Sample(2000, 15), data.Domain(), kdtree.Params{MinRows: 50})
	s := Materialize(l, data, Config{GroupRows: 128})
	byPart := l.RouteIndices(data, allRows(data.NumRows()))
	builder := colstore.NewBuilder(data, 128)
	for _, p := range l.Parts {
		sp, err := s.Partition(p.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sp.Table.NumRows(), len(byPart[p.ID]); got != want || p.FullRows != int64(want) {
			t.Fatalf("partition %d: table %d rows, FullRows %d, routing says %d", p.ID, got, p.FullRows, want)
		}
		// The table equals the builder's table for that row set.
		var a, b bytes.Buffer
		if err := sp.Table.Encode(&a); err != nil {
			t.Fatal(err)
		}
		if err := builder.Build(byPart[p.ID]).Encode(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("partition %d: stored table differs from Builder.Build of its rows", p.ID)
		}
	}
}
