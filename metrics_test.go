package paw

import (
	"os"
	"sort"
	"strings"
	"testing"

	"paw/internal/blockstore"
	"paw/internal/core"
	"paw/internal/dataset"
	"paw/internal/dist"
	"paw/internal/drift"
	"paw/internal/layout"
	"paw/internal/obs"
	"paw/internal/placement"
	"paw/internal/router"
	"paw/internal/tuner"
	"paw/internal/workload"
)

// metricTableHeader opens README.md's metric table: one row per series, with
// its kind, its label keys, the process whose registry holds it and the
// question it answers.
const metricTableHeader = "| series | kind | labels | process | operator question |"

// TestMetricInventory attaches a registry at every attach point — master,
// workers, router, drift controller, the three builders and the tuner — and
// holds what they register to README.md's metric table: the same series, of
// the same kind, with the same labels, in the same process. A series nobody
// documents (and so nobody reads) fails here, as does a row for a series that
// is gone. A labelled series may have at most one series per worker slot.
func TestMetricInventory(t *testing.T) {
	const slots = 2
	data := dataset.Uniform(4000, 2, 3)
	rows := make([]int, data.NumRows())
	for i := range rows {
		rows[i] = i
	}
	hist := workload.Uniform(data.Domain(), workload.Defaults(10, 5))
	// One registry per process that serves one, as the binaries attach them.
	build, tune, master := obs.New(), obs.New(), obs.New()

	// Every builder registers on the build registry. The PAW layout, built
	// last, is the one the fleet serves and the drift controller reads.
	var l *layout.Layout
	for _, m := range []core.Method{core.MethodQdTree, core.MethodKdTree, core.MethodPAW} {
		var err error
		if l, err = core.BuildMethod(m, data, rows, data.Domain(), hist, core.Params{MinRows: 300, Obs: build}); err != nil {
			t.Fatal(err)
		}
	}
	tuner.SelectObserved(l, data, hist.Boxes(), l.TotalBytes/10, tune)

	cfg := blockstore.Config{}
	store := blockstore.Materialize(l, data, cfg)
	f, err := dist.StartFleet(l, data.Names(), store, placement.LeafRuns(l, slots, 1), slots, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Master.SetMetrics(master)
	rm, err := router.NewMaster(l, data.Names())
	if err != nil {
		t.Fatal(err)
	}
	rm.SetMetrics(master)
	drift.New(f.Master, data, cfg.Builder(data), drift.Config{}).SetMetrics(master)

	regs := map[*obs.Registry]string{build: "pawcli build", tune: "tuner.SelectObserved", master: "pawmaster"}
	for _, r := range f.Regs {
		regs[r] = "pawworker"
	}
	got := map[string]bool{} // "name|kind|labels|process"
	for r, process := range regs {
		perBase := map[string]int{}
		for key, kind := range seriesKinds(r.Snapshot()) {
			base, labels := key, "—"
			if j := strings.IndexByte(key, '{'); j >= 0 {
				base, labels = key[:j], labelKeys(key[j:])
				if perBase[base]++; perBase[base] > slots {
					t.Errorf("%s: %s has more than one series per worker slot (%d slots)", process, base, slots)
				}
			}
			got[strings.Join([]string{base, kind, labels, process}, "|")] = true
		}
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	in := false
	for _, line := range strings.Split(string(readme), "\n") {
		if line == metricTableHeader {
			in = true
			continue
		}
		if !in || strings.HasPrefix(line, "|---") || strings.HasPrefix(line, "| ---") {
			continue
		}
		if !strings.HasPrefix(line, "|") {
			break
		}
		cells := strings.Split(line, "|")
		if len(cells) != 7 || strings.TrimSpace(cells[5]) == "" {
			t.Errorf("README metric row %q: want five cells, the last a question", line)
			continue
		}
		var row []string
		for _, c := range cells[1:5] {
			row = append(row, strings.Trim(strings.TrimSpace(c), "`"))
		}
		want[strings.Join(row, "|")] = true
	}
	if len(want) == 0 {
		t.Fatalf("README.md has no metric table under %q", metricTableHeader)
	}
	var missing, stale []string
	for k := range got {
		if !want[k] {
			missing = append(missing, k)
		}
	}
	for k := range want {
		if !got[k] {
			stale = append(stale, k)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	for _, k := range missing {
		t.Errorf("registered but not in README's metric table: %s", k)
	}
	for _, k := range stale {
		t.Errorf("in README's metric table but registered by nothing: %s", k)
	}
}

// seriesKinds maps every series of a snapshot to its instrument kind.
func seriesKinds(s obs.Snapshot) map[string]string {
	out := map[string]string{}
	for k := range s.Counters {
		out[k] = "counter"
	}
	for k := range s.Gauges {
		out[k] = "gauge"
	}
	for k := range s.Histograms {
		out[k] = "histogram"
	}
	return out
}

// labelKeys turns a label block such as {worker="3"} into its keys, "worker".
func labelKeys(block string) string {
	var keys []string
	for _, pair := range strings.Split(strings.Trim(block, "{}"), ",") {
		keys = append(keys, pair[:strings.IndexByte(pair, '=')])
	}
	return strings.Join(keys, ",")
}
