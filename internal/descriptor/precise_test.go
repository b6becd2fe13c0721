package descriptor

import (
	"testing"

	"paw/internal/dataset"
	"paw/internal/geom"
	"paw/internal/kdtree"
	"paw/internal/layout"
	"paw/internal/workload"
)

func buildLayout(t *testing.T, rows int) (*layout.Layout, *dataset.Dataset) {
	t.Helper()
	data := dataset.Uniform(rows, 2, 1)
	l := kdtree.Build(data, allRows(rows), data.Domain(), kdtree.Params{MinRows: rows / 16})
	l.Route(data)
	return l, data
}

func TestInstallBasics(t *testing.T) {
	l, data := buildLayout(t, 2000)
	mem, err := Install(l, data, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantMem := int64(0)
	for _, p := range l.Parts {
		if len(p.Precise) == 0 || len(p.Precise) > 3 {
			t.Errorf("partition %d has %d precise MBRs", p.ID, len(p.Precise))
		}
		wantMem += int64(len(p.Precise)) * 2 * BytesPerBound
	}
	if mem != wantMem {
		t.Errorf("memory accounting = %d, want %d", mem, wantMem)
	}
	if _, err := Install(l, data, 0); err == nil {
		t.Error("Nmbr=0 must error")
	}
}

// TestPruningNeverDropsResults is the §V-A correctness invariant: with
// precise descriptors built from the full dataset, the pruned partition set
// still covers every query result row.
func TestPruningNeverDropsResults(t *testing.T) {
	l, data := buildLayout(t, 3000)
	if _, err := Install(l, data, 4); err != nil {
		t.Fatal(err)
	}
	w := workload.Uniform(data.Domain(), workload.Defaults(60, 2))
	byPart := l.RouteIndices(data)
	for _, q := range w.Boxes() {
		scanned := map[layout.ID]bool{}
		for _, id := range l.PartitionsFor(q) {
			scanned[id] = true
		}
		// Every result row's partition must be in the scanned set.
		for _, id := range resultPartitions(data, byPart, q) {
			if !scanned[id] {
				t.Fatalf("partition %d holds results of %v but was pruned", id, q)
			}
		}
	}
}

func resultPartitions(data *dataset.Dataset, byPart [][]int, q geom.Box) []layout.ID {
	var out []layout.ID
	for id, rows := range byPart {
		for _, r := range rows {
			if data.RowInBox(r, q) {
				out = append(out, layout.ID(id))
				break
			}
		}
	}
	return out
}

// TestPruningReducesCost: on clustered data, precise descriptors skip
// partitions whose coarse MBR intersects the query but whose records do not.
func TestPruningReducesCost(t *testing.T) {
	data := dataset.OSMLike(5000, 8, 3)
	l := kdtree.Build(data, allRows(5000), data.Domain(), kdtree.Params{MinRows: 200})
	l.Route(data)
	w := workload.Uniform(data.Domain(), workload.Defaults(80, 4))
	before := l.WorkloadCost(w.Boxes(), nil)
	if _, err := Install(l, data, 6); err != nil {
		t.Fatal(err)
	}
	after := l.WorkloadCost(w.Boxes(), nil)
	if after > before {
		t.Errorf("cost rose with precise descriptors: %d -> %d", before, after)
	}
	if after == before {
		t.Log("precise descriptors pruned nothing on this workload (possible but unusual)")
	}
}

func TestUninstall(t *testing.T) {
	l, data := buildLayout(t, 1000)
	if _, err := Install(l, data, 3); err != nil {
		t.Fatal(err)
	}
	Uninstall(l)
	for _, p := range l.Parts {
		if p.Precise != nil {
			t.Fatal("Uninstall left precise descriptors behind")
		}
	}
}

func TestMoreMBRsNeverWorse(t *testing.T) {
	data := dataset.OSMLike(4000, 6, 5)
	l := kdtree.Build(data, allRows(4000), data.Domain(), kdtree.Params{MinRows: 150})
	l.Route(data)
	w := workload.Uniform(data.Domain(), workload.Defaults(50, 6))
	prev := int64(1 << 62)
	for _, k := range []int{1, 3, 6, 10, 20} {
		if _, err := Install(l, data, k); err != nil {
			t.Fatal(err)
		}
		c := l.WorkloadCost(w.Boxes(), nil)
		// More MBRs give finer covers; cost should be non-increasing up to
		// STR tiling noise. Allow 5% slack.
		if float64(c) > float64(prev)*1.05 {
			t.Errorf("cost with %d MBRs = %d, above previous %d", k, c, prev)
		}
		if c < prev {
			prev = c
		}
	}
}

// allRows returns [0, n).
func allRows(n int) []int {
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	return rows
}
