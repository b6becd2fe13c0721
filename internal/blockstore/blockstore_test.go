package blockstore

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"paw/internal/colstore"
	"paw/internal/core"
	"paw/internal/dataset"
	"paw/internal/geom"
	"paw/internal/invariant"
	"paw/internal/kdtree"
	"paw/internal/layout"
	"paw/internal/qdtree"
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
	// 6 000-row partitions of 32-byte rows: each spans two 128 KB blocks.
	data := dataset.Uniform(24_000, 2, 1)
	l := kdtree.Build(data, allRows(24_000), data.Domain(), kdtree.Params{MinRows: 5000})
	s := Materialize(l, data, Config{GroupRows: 64})
	if len(s.parts) != l.NumPartitions() {
		t.Fatalf("stored %d partitions, layout has %d", len(s.parts), l.NumPartitions())
	}
	if s.BytesWritten != data.TotalBytes() {
		t.Errorf("bytes written = %d, want %d", s.BytesWritten, data.TotalBytes())
	}
	if s.SimWriteTime <= 0 || s.RoutingTime <= 0 {
		t.Errorf("timings not recorded: write=%v route=%v", s.SimWriteTime, s.RoutingTime)
	}
	// Block accounting: every partition occupies ceil(bytes/blockBytes)
	// blocks, at least one, and total blocks >= totalBytes/blockBytes.
	if got, least := s.TotalBlocks(), int(data.TotalBytes()/blockBytes); got < least {
		t.Errorf("total blocks = %d, want >= %d", got, least)
	}
	multiBlock := 0
	for _, p := range l.Parts {
		sp, err := s.Partition(p.ID)
		if err != nil {
			t.Fatal(err)
		}
		if sp.Bytes() != p.Bytes() {
			t.Errorf("partition %d stored %d bytes, layout says %d", p.ID, sp.Bytes(), p.Bytes())
		}
		if want := max(1, int((sp.Bytes()+blockBytes-1)/blockBytes)); sp.Blocks != want {
			t.Errorf("partition %d of %d bytes occupies %d blocks, want %d", p.ID, sp.Bytes(), sp.Blocks, want)
		}
		if sp.Blocks > 1 {
			multiBlock++
		}
	}
	if multiBlock == 0 {
		t.Fatal("no partition spans more than one block: the block count is vacuous")
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
	for id := 0; id < len(s.parts); id++ {
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
// the store. Encoded tables and the byte and block totals are identical serial
// and parallel and from run to run. (`make race` also runs this package at
// -cpu 1,2.)
func TestMaterializeDeterministic(t *testing.T) {
	data := dataset.TPCHLike(60_000, 11).Project(4)
	l := kdtree.Build(data, data.Sample(6000, 12), data.Domain(), kdtree.Params{MinRows: 100})
	cfg := Config{GroupRows: 256}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ref := Materialize(l, data, cfg)
	want, wantEnv := encodeStore(t, ref), envelopes(l)
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
		if !reflect.DeepEqual(envelopes(l), wantEnv) {
			t.Fatalf("GOMAXPROCS=%d: data envelopes differ from the serial store's", procs)
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
	byPart := l.RouteIndices(data)
	builder := colstore.NewBuilder(data, data.Domain(), 128)
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
		if err := builder.Build(byPart[p.ID], l.ExtendedHist()).Encode(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("partition %d: stored table differs from Builder.Build of its rows", p.ID)
		}
	}
}

// envelopes copies the layout's precise descriptors out, one list per
// partition.
func envelopes(l *layout.Layout) [][]geom.Box {
	out := make([][]geom.Box, len(l.Parts))
	for i, p := range l.Parts {
		for _, b := range p.Precise {
			out[i] = append(out[i], b.Clone())
		}
	}
	return out
}

// TestMaterializeInstallsEnvelopes: after Materialize every non-empty
// partition carries exactly one precise box, the envelope of its table, and
// an empty one none — whatever was installed before, and whichever dataset
// the layout was last materialised over. A box kept from other data would
// make the master drop partitions that hold matching rows.
func TestMaterializeInstallsEnvelopes(t *testing.T) {
	data := dataset.TPCHLike(30_000, 21).Project(4)
	other := dataset.TPCHLike(9_000, 22).Project(4)
	dom := data.Domain()
	sample := data.Sample(3000, 23)
	hist := workload.Uniform(dom, workload.Defaults(20, 24))
	layouts := map[string]*layout.Layout{
		"paw":     core.Build(data, sample, dom, hist, core.Params{MinRows: 30, Delta: 0.01 * (dom.Hi[0] - dom.Lo[0])}),
		"qd-tree": qdtree.Build(data, sample, dom, hist.Boxes(), qdtree.Params{MinRows: 30}),
		"kd-tree": kdtree.Build(data, sample, dom, kdtree.Params{MinRows: 30}),
	}
	for name, l := range layouts {
		// A lying descriptor: a box no row is in.
		lie := dom.Clone()
		for d := range lie.Lo {
			lie.Lo[d], lie.Hi[d] = dom.Hi[d]+1, dom.Hi[d]+2
		}
		for _, p := range l.Parts {
			p.Precise = []geom.Box{lie, lie}
		}
		var first [][]geom.Box
		for _, ds := range []*dataset.Dataset{data, other} {
			s := Materialize(l, ds, Config{GroupRows: 128})
			empty := 0
			for _, p := range l.Parts {
				sp, err := s.Partition(p.ID)
				if err != nil {
					t.Fatal(err)
				}
				env, ok := sp.Table.Envelope()
				switch {
				case !ok && p.Precise != nil:
					t.Fatalf("%s: empty partition %d kept descriptor %v", name, p.ID, p.Precise)
				case ok && (len(p.Precise) != 1 || !p.Precise[0].Equal(env)):
					t.Fatalf("%s: partition %d has descriptor %v, its table's envelope is %v", name, p.ID, p.Precise, env)
				case !ok:
					empty++
				}
			}
			if err := invariant.CheckRouting(l, invariant.Inputs{Data: ds, Domain: dom, Seed: 25}); err != nil {
				t.Fatalf("%s over %d rows (%d empty partitions): %v", name, ds.NumRows(), empty, err)
			}
			if first == nil {
				first = envelopes(l)
			}
		}
		// The second dataset's envelopes replaced the first's.
		if reflect.DeepEqual(envelopes(l), first) {
			t.Errorf("%s: materialising a different dataset left every envelope unchanged", name)
		}
	}
}
