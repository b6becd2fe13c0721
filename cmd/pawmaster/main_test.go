package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"paw/internal/blockstore"
	"paw/internal/dataset"
	"paw/internal/invariant"
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

// TestLoadRefusesForeignDataset: the layout file carries each partition's data
// envelope, so the boot check accepts the dataset the layout was materialised
// over and refuses another one — naming a partition whose box disowns a row —
// instead of serving answers with rows missing. pawworker boots through the
// same check: started beside the foreign file it exits with the same refusal
// before it materialises a row.
func TestLoadRefusesForeignDataset(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, enc func(w io.Writer) error) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := enc(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	dataFile := func(name string, d *dataset.Dataset) string {
		return write(name, func(w io.Writer) error { _, err := d.WriteTo(w); return err })
	}
	data := dataset.TPCHLike(20_000, 5)
	l := kdtree.Build(data, data.Sample(2000, 6), data.Domain(), kdtree.Params{MinRows: 100})
	blockstore.Materialize(l, data, workerStore)
	layoutPath := write("l.pawl", l.Encode)

	got, gotL, err := invariant.LoadPair(dataFile("same.pawd", data), layoutPath)
	if err != nil {
		t.Fatalf("the dataset the layout was built over: %v", err)
	}
	if got.NumRows() != data.NumRows() || gotL.NumPartitions() != l.NumPartitions() {
		t.Fatalf("loaded %d rows and %d partitions, wrote %d and %d", got.NumRows(), gotL.NumPartitions(), data.NumRows(), l.NumPartitions())
	}
	for _, p := range gotL.Parts {
		if (p.FullRows > 0) != (len(p.Precise) == 1) {
			t.Fatalf("partition %d decoded with %d rows and %d boxes", p.ID, p.FullRows, len(p.Precise))
		}
	}
	other := dataFile("other.pawd", dataset.TPCHLike(20_000, 6))
	_, _, err = invariant.LoadPair(other, layoutPath)
	if err == nil || !strings.Contains(err.Error(), "precise descriptor of partition") {
		t.Fatalf("another dataset of the same schema: got %v, want a refusal naming the partition", err)
	}
	worker := filepath.Join(dir, "pawworker")
	if out, err := exec.Command("go", "build", "-o", worker, "paw/cmd/pawworker").CombinedOutput(); err != nil {
		t.Fatalf("building pawworker: %v\n%s", err, out)
	}
	// A worker that took the pair would serve until killed: bound the wait.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, worker, "-data", other, "-layout", layoutPath,
		"-workers", "1", "-index", "0", "-listen", "127.0.0.1:0").CombinedOutput()
	if err == nil || !strings.Contains(string(out), "precise descriptor of partition") {
		t.Fatalf("pawworker beside another dataset: exit %v, output %q; want a refusal naming the partition", err, out)
	}
	if _, _, err = invariant.LoadPair(dataFile("narrow.pawd", data.Project(3)), layoutPath); err == nil {
		t.Fatal("a dataset of another width must be refused")
	}
}
