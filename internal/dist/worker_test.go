package dist

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"paw/internal/blockstore"
	"paw/internal/colstore"
	"paw/internal/core"
	"paw/internal/dataset"
	"paw/internal/geom"
	"paw/internal/layout"
	"paw/internal/workload"
)

// workerFixture materialises a small multi-partition store and returns it
// with the dataset and every partition ID.
func workerFixture(t *testing.T, minParts int) (*dataset.Dataset, *blockstore.Store, []layout.ID) {
	t.Helper()
	data, _, store, ids := workerFixtureLayout(t, minParts)
	return data, store, ids
}

// workerFixtureLayout is workerFixture plus the layout the store was
// materialised from, for tests that need a partition's rows.
func workerFixtureLayout(t *testing.T, minParts int) (*dataset.Dataset, *layout.Layout, *blockstore.Store, []layout.ID) {
	t.Helper()
	data := dataset.Uniform(12000, 3, 11)
	rows := make([]int, data.NumRows())
	for i := range rows {
		rows[i] = i
	}
	hist := workload.Uniform(data.Domain(), workload.Defaults(40, 5))
	l := core.Build(data, rows, data.Domain(), hist, core.Params{MinRows: 200})
	if l.NumPartitions() < minParts {
		t.Fatalf("fixture has %d partitions, need %d", l.NumPartitions(), minParts)
	}
	store := blockstore.Materialize(l, data, blockstore.Config{GroupRows: 128})
	ids := make([]layout.ID, 0, len(l.Parts))
	for _, p := range l.Parts {
		ids = append(ids, p.ID)
	}
	return data, l, store, ids
}

// TestWorkerOneTablePath: a table answers identically however it reached the
// worker — NewWorker (epoch 0), an alias install (epoch 1) or a payload
// install from AdminFetch bytes (epoch 2) — and equals the store's own scan
// and the dataset oracle. Retiring epoch 0 leaves epoch 1's aliases serving.
func TestWorkerOneTablePath(t *testing.T) {
	data, store, ids := workerFixture(t, 4)
	wk := NewWorker(store, ids) // called in process, never served: no fleet
	for _, id := range ids {
		sp, err := store.Partition(id)
		if err != nil {
			t.Fatal(err)
		}
		rows := int64(sp.Table.NumRows())
		if r := wk.handleAdmin(AdminRequest{Op: AdminInstall, Epoch: 1, ID: id, ReuseEpoch: 0, ReuseID: id, Rows: rows}); r.Err != "" {
			t.Fatalf("alias install of %d: %s", id, r.Err)
		}
		f := wk.handleAdmin(AdminRequest{Op: AdminFetch, Epoch: 0, ID: id})
		if f.Err != "" || f.Rows != rows {
			t.Fatalf("fetch of %d: err=%q rows=%d want %d", id, f.Err, f.Rows, rows)
		}
		if r := wk.handleAdmin(AdminRequest{Op: AdminInstall, Epoch: 2, ID: id, ReuseID: -1, Payload: f.Payload, Rows: rows}); r.Err != "" {
			t.Fatalf("payload install of %d: %s", id, r.Err)
		}
	}
	if r := wk.handleAdmin(AdminRequest{Op: AdminInstall, Epoch: 0, ID: ids[0], ReuseEpoch: 1, ReuseID: ids[0]}); r.Err == "" {
		t.Fatal("install into epoch 0 must be refused")
	}

	dom := data.Domain()
	q := geom.Box{Lo: append([]float64(nil), dom.Lo...), Hi: append([]float64(nil), dom.Hi...)}
	q.Hi[0] = (dom.Lo[0] + dom.Hi[0]) / 2
	q.Lo[1] = dom.Lo[1] + (dom.Hi[1]-dom.Lo[1])/4

	want := make(map[layout.ID]ScanResponse, len(ids))
	total := 0
	for _, id := range ids {
		st, err := store.ScanPartition(id, q)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = ScanResponse{
			Rows: st.Matched, BytesRead: st.BytesRead, BytesSkipped: st.BytesSkipped,
			GroupsRead: st.GroupsRead, GroupsSkipped: st.GroupsSkipped, FailedPartition: -1,
		}
		total += st.Matched
		for epoch := uint64(0); epoch <= 2; epoch++ {
			got := wk.handle(ScanRequest{Query: q, IDs: []layout.ID{id}, Epoch: epoch})
			if !reflect.DeepEqual(got, want[id]) {
				t.Fatalf("partition %d epoch %d: %+v, want %+v", id, epoch, got, want[id])
			}
		}
	}
	if oracle := data.CountInBox(q, nil); total != oracle {
		t.Fatalf("partitions sum to %d rows, dataset oracle %d", total, oracle)
	}

	if r := wk.handleAdmin(AdminRequest{Op: AdminRetire, Epoch: 0}); r.Err != "" {
		t.Fatal(r.Err)
	}
	for _, id := range ids {
		got := wk.handle(ScanRequest{Query: q, IDs: []layout.ID{id}, Epoch: 1})
		if !reflect.DeepEqual(got, want[id]) {
			t.Fatalf("partition %d after retiring epoch 0: %+v, want %+v", id, got, want[id])
		}
	}
	gone := wk.handle(ScanRequest{Query: q, IDs: ids[:1], Epoch: 0})
	if !strings.Contains(gone.Err, "no layout epoch 0") || gone.FailedPartition != int64(ids[0]) {
		t.Fatalf("retired epoch 0 answered %+v", gone)
	}
}

// TestWorkerBatchAllocsFlat: an untraced batch pays its allocations once —
// batch key, flight entry, response — not once per partition. This is the
// per-layer number ROADMAP item 6a starts from.
func TestWorkerBatchAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds scanners under the race detector")
	}
	data, store, ids := workerFixture(t, 24)
	small := ids[:0:0]
	for _, id := range ids {
		if sp, _ := store.Partition(id); sp.Table.NumGroups() < 8 {
			small = append(small, id)
		}
	}
	if len(small) < 24 {
		t.Fatalf("only %d partitions under 8 row groups, need 24", len(small))
	}
	wk := NewWorker(store, ids) // called in process, never served: no fleet
	allocs := func(n int) float64 {
		req := ScanRequest{Query: data.Domain(), IDs: small[:n]}
		return testing.AllocsPerRun(50, func() {
			if resp := wk.handle(req); resp.Err != "" {
				t.Fatal(resp.Err)
			}
		})
	}
	one, many := allocs(1), allocs(24)
	if many-one > 2 {
		t.Fatalf("batch of 24 allocates %.0f, batch of 1 allocates %.0f: per-partition allocations are back", many, one)
	}
}

// TestWorkerBatchOneScanner: a batch of small partitions scans all of them on
// one scanner, checked out once and held to the end, and answers exactly what
// the same partitions answer one batch each, which is what the dataset says.
func TestWorkerBatchOneScanner(t *testing.T) {
	data, l, store, ids := workerFixtureLayout(t, 24)
	var small []layout.ID
	for _, id := range ids {
		if sp, _ := store.Partition(id); sp.Table.NumGroups() < 8 && len(small) < 24 {
			small = append(small, id)
		}
	}
	if len(small) < 24 {
		t.Fatalf("only %d partitions under 8 row groups, need 24", len(small))
	}
	// Half the domain on every dimension: partitions pruned, covered and cut.
	q := data.Domain()
	for d := range q.Lo {
		q.Hi[d] = q.Lo[d] + 0.5*(q.Hi[d]-q.Lo[d])
	}

	wk := NewWorker(store, ids) // called in process, never served: no fleet
	batch := wk.handle(ScanRequest{Query: q, IDs: small})
	if batch.Err != "" {
		t.Fatal(batch.Err)
	}
	sum := ScanResponse{FailedPartition: -1}
	for _, id := range small {
		one := wk.handle(ScanRequest{Query: q, IDs: []layout.ID{id}})
		if one.Err != "" {
			t.Fatal(one.Err)
		}
		sum.Rows += one.Rows
		sum.BytesRead += one.BytesRead
		sum.BytesSkipped += one.BytesSkipped
		sum.GroupsRead += one.GroupsRead
		sum.GroupsSkipped += one.GroupsSkipped
	}
	if !reflect.DeepEqual(batch, sum) {
		t.Fatalf("batch %+v != sum of its single-partition batches %+v", batch, sum)
	}
	inBatch := make(map[layout.ID]bool, len(small))
	for _, id := range small {
		inBatch[id] = true
	}
	var rows []int
	for r, id := range l.RouteAssign(data, 1) {
		if inBatch[layout.ID(id)] {
			rows = append(rows, r)
		}
	}
	if want := data.CountInBox(q, rows); batch.Rows != want {
		t.Fatalf("batch matched %d rows, dataset says %d", batch.Rows, want)
	}

	if raceEnabled {
		t.Skip("sync.Pool sheds scanners under the race detector")
	}
	// Pool accounting. On one P with the collector off a sync.Pool is exact: a
	// Get returns what the last Put left, or finds nothing and allocates. The
	// hook runs before every partition's scan and takes whatever the pool
	// holds at that moment; with the batch's one scanner checked out for the
	// whole batch that is nothing, every time. A checkout per partition would
	// have put a scanner back between two partitions, and the hook would get
	// it without allocating.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var ms runtime.MemStats
	taken := make([]*colstore.Scanner, 0, len(small)+2) // kept, so a Get that misses must allocate
	getAllocates := func(sp *colstore.ScannerPool) bool {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		taken = append(taken, sp.Get())
		runtime.ReadMemStats(&ms)
		return ms.Mallocs != before
	}
	wk = NewWorker(store, ids) // called in process, never served: no fleet
	served := 0
	wk.scanHook = func(layout.ID) {
		if !getAllocates(&wk.scanners) {
			served++
		}
	}
	if resp := wk.handle(ScanRequest{Query: q, IDs: small}); resp.Err != "" {
		t.Fatal(resp.Err)
	}
	if served != 0 {
		t.Fatalf("the pool held a scanner at %d of %d partition boundaries: the batch does not keep one scanner checked out", served, len(small))
	}
	// What the batch returns at its end is that one scanner and no other.
	if getAllocates(&wk.scanners) {
		t.Fatal("the batch returned no scanner to the pool")
	}
	if !getAllocates(&wk.scanners) {
		t.Fatal("the batch returned more than one scanner to the pool")
	}
}
