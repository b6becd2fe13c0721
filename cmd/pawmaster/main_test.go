package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"paw/internal/blockstore"
	"paw/internal/dataset"
	"paw/internal/dist"
	"paw/internal/invariant"
	"paw/internal/kdtree"
	"paw/internal/membership"
	"paw/internal/router"
	"paw/internal/sqlrew"
	"paw/internal/workload"
)

// writeFile creates dir/name and fills it with enc.
func writeFile(t *testing.T, dir, name string, enc func(w io.Writer) error) string {
	t.Helper()
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

func dataFile(t *testing.T, dir, name string, d *dataset.Dataset) string {
	t.Helper()
	return writeFile(t, dir, name, func(w io.Writer) error { _, err := d.WriteTo(w); return err })
}

// TestLoadRefusesForeignDataset: the layout file carries each partition's data
// envelope, so the boot check accepts the dataset the layout was materialised
// over and refuses another one — naming a partition whose box disowns a row —
// instead of serving answers with rows missing.
func TestLoadRefusesForeignDataset(t *testing.T) {
	dir := t.TempDir()
	data := dataset.TPCHLike(20_000, 5)
	l := kdtree.Build(data, data.Sample(2000, 6), data.Domain(), kdtree.Params{MinRows: 100})
	blockstore.Materialize(l, data, blockstore.Config{})
	layoutPath := writeFile(t, dir, "l.pawl", l.Encode)

	got, gotL, err := invariant.LoadPair(dataFile(t, dir, "same.pawd", data), layoutPath)
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
	other := dataFile(t, dir, "other.pawd", dataset.TPCHLike(20_000, 6))
	_, _, err = invariant.LoadPair(other, layoutPath)
	if err == nil || !strings.Contains(err.Error(), "precise descriptor of partition") {
		t.Fatalf("another dataset of the same schema: got %v, want a refusal naming the partition", err)
	}
	if _, _, err = invariant.LoadPair(dataFile(t, dir, "narrow.pawd", data.Project(3)), layoutPath); err == nil {
		t.Fatal("a dataset of another width must be refused")
	}
}

// TestWorkersServeTheStoreDir runs the binaries as a fleet is run: pawcli
// build -store writes the partition files, and two pawworker processes serve
// that one directory behind a master that places on their addresses. Every
// query of a 50-box workload equals the dataset oracle's count. Then one
// partition's file is swapped for the same partition's file from another
// dataset's store: the queries that touch it fail naming it, and none
// returns a wrong count.
func TestWorkersServeTheStoreDir(t *testing.T) {
	dir := t.TempDir()
	bin := func(name string) string {
		path := filepath.Join(dir, name)
		if out, err := exec.Command("go", "build", "-o", path, "paw/cmd/"+name).CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, out)
		}
		return path
	}
	pawcli, pawworker := bin("pawcli"), bin("pawworker")
	build := func(d *dataset.Dataset, name string) (dataPath, layoutPath, store string) {
		dataPath = dataFile(t, dir, name+".pawd", d)
		layoutPath, store = filepath.Join(dir, name+".pawl"), filepath.Join(dir, name)
		cmd := exec.Command(pawcli, "build", "-in", dataPath, "-method", "kd-tree", "-layout", layoutPath,
			"-store", store, "-report", filepath.Join(dir, name+".json"), "-log-level", "warn")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("pawcli build: %v\n%s", err, out)
		}
		return dataPath, layoutPath, store
	}
	dataPath, layoutPath, store := build(dataset.TPCHLike(20_000, 5), "same")
	_, _, otherStore := build(dataset.TPCHLike(20_000, 6), "other")
	data, l, err := invariant.LoadPair(dataPath, layoutPath)
	if err != nil {
		t.Fatal(err)
	}
	boxes := workload.Uniform(data.Domain(), workload.Defaults(50, 8)).Boxes()
	boxes = append(boxes, data.Domain())

	// serve starts two workers on store, runs every box through a master
	// placing on them, and returns each query's error (nil: exact).
	serve := func() []error {
		var addrs []string
		for w := 0; w < 2; w++ {
			cmd := exec.Command(pawworker, "-store", store, "-layout", layoutPath, "-listen", "127.0.0.1:0")
			out, err := cmd.StdoutPipe()
			if err != nil {
				t.Fatal(err)
			}
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			defer func() {
				cmd.Process.Kill()
				cmd.Wait()
			}()
			line, err := bufio.NewReader(out).ReadString('\n')
			if err != nil || !strings.Contains(line, " on ") {
				t.Fatalf("pawworker printed %q, %v", line, err)
			}
			addrs = append(addrs, strings.TrimSpace(line[strings.LastIndex(line, " on ")+4:]))
		}
		rm, err := router.NewMaster(l, data.Names())
		if err != nil {
			t.Fatal(err)
		}
		m, err := dist.NewMasterReplicated(rm, addrs, membership.StaticPlacement(l, len(addrs), 1))
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		errs := make([]error, len(boxes))
		for i, b := range boxes {
			resp, err := m.Query(sqlrew.BoxSQL(data.Names(), b))
			if want := data.CountInBox(b, nil); err == nil && resp.Rows != want {
				err = fmt.Errorf("%d rows, the dataset holds %d", resp.Rows, want)
			}
			errs[i] = err
		}
		return errs
	}
	for i, err := range serve() {
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}

	swapped := l.Parts[len(l.Parts)/2].ID
	name := fmt.Sprintf("%d.pawc", swapped)
	payload, err := os.ReadFile(filepath.Join(otherStore, name))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(store, name), payload, 0o644); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("partition %d", swapped)
	rm, err := router.NewMaster(l, data.Names())
	if err != nil {
		t.Fatal(err)
	}
	hit := 0
	for i, err := range serve() {
		plan, perr := rm.RouteSQL(sqlrew.BoxSQL(data.Names(), boxes[i]))
		if perr != nil {
			t.Fatal(perr)
		}
		touches := slices.Contains(plan.PartitionIDs(), swapped)
		if touches {
			hit++
		}
		switch {
		case touches && (err == nil || !strings.Contains(err.Error(), want)):
			t.Errorf("query %d touches the swapped partition: %v, want an error naming %s", i, err, want)
		case !touches && err != nil:
			t.Errorf("query %d: %v", i, err)
		}
	}
	if hit == 0 {
		t.Fatalf("no query touches partition %d", swapped)
	}
}
