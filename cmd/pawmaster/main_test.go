package main

import (
	"bytes"
	"testing"

	"paw/internal/blockstore"
	"paw/internal/dataset"
	"paw/internal/kdtree"
)

// TestPayloadSourceMatchesWorkerStore: the re-encode fallback hands a joining
// worker exactly the bytes a live holder would have shipped — the partition as
// pawworker's block store (default config) materialised it.
func TestPayloadSourceMatchesWorkerStore(t *testing.T) {
	data := dataset.TPCHLike(30_000, 5)
	l := kdtree.Build(data, data.Sample(3000, 6), data.Domain(), kdtree.Params{MinRows: 500})
	store := blockstore.Materialize(l, data, workerStore)
	src := payloadSource(l, data, workerStore.Builder(data))
	multiGroup := 0
	for _, p := range l.Parts {
		sp, err := store.Partition(p.ID)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := sp.Table.Encode(&want); err != nil {
			t.Fatal(err)
		}
		// Twice: the source must not depend on having been asked before.
		for i := 0; i < 2; i++ {
			got, rows, err := src(p.ID)
			if err != nil {
				t.Fatal(err)
			}
			if rows != p.FullRows || !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("partition %d (ask %d): fallback payload of %d rows / %d bytes, store holds %d rows / %d bytes",
					p.ID, i, rows, len(got), p.FullRows, want.Len())
			}
		}
		if sp.Table.NumGroups() > 1 {
			multiGroup++
		}
	}
	if multiGroup == 0 {
		t.Fatal("no partition spans more than one row group: the comparison is vacuous")
	}
	if _, _, err := src(9999); err == nil {
		t.Error("unknown partition must error")
	}
}
