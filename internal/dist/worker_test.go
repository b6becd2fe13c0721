package dist

import (
	"reflect"
	"strings"
	"testing"

	"paw/internal/blockstore"
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
	return data, store, ids
}

// TestWorkerOneTablePath: a table answers identically however it reached the
// worker — NewWorker (epoch 0), an alias install (epoch 1) or a payload
// install from AdminFetch bytes (epoch 2) — and equals the store's own scan
// and the dataset oracle. Retiring epoch 0 leaves epoch 1's aliases serving.
func TestWorkerOneTablePath(t *testing.T) {
	data, store, ids := workerFixture(t, 4)
	wk := NewWorker(store, ids)
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
			GroupsRead: st.GroupsRead, GroupsSkipped: st.GroupsSkipped,
			GroupsZoneSkipped: st.GroupsZoneSkipped, FailedPartition: -1,
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
	wk := NewWorker(store, ids)
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
