package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"paw/internal/dataset"
	"paw/internal/kdtree"
	"paw/internal/layout"
	"paw/internal/obs"
	"paw/internal/qdtree"
	"paw/internal/workload"
)

// TestParallelBuildDeterminism is the regression gate for the concurrent
// build substrate: for every builder (PAW in all variants, Qd-tree, k-d
// tree), the layout produced with Parallelism: 8 must be deep-equal —
// and byte-identical once encoded — to the serial layout, and must pass
// layout.Validate after routing the full dataset.
func TestParallelBuildDeterminism(t *testing.T) {
	type buildCase struct {
		name  string
		build func(parallelism int) *layout.Layout
	}

	tpch := dataset.TPCHLike(12_000, 101).Project(4).Normalize()
	osm := dataset.OSMLike(8_000, 6, 102).Normalize()

	var cases []buildCase
	for _, ds := range []struct {
		label string
		data  *dataset.Dataset
	}{{"tpch", tpch}, {"osm", osm}} {
		data := ds.data
		dom := data.Domain()
		rows := allRows(data.NumRows())
		hist := workload.Uniform(dom, workload.Defaults(24, 103))
		delta := 0.01 * (dom.Hi[0] - dom.Lo[0])
		minRows := 40

		cases = append(cases,
			buildCase{ds.label + "/paw", func(par int) *layout.Layout {
				return Build(data, rows, dom, hist, Params{MinRows: minRows, Delta: delta, Parallelism: par})
			}},
			buildCase{ds.label + "/paw-refine", func(par int) *layout.Layout {
				return Build(data, rows, dom, hist, Params{
					MinRows: minRows, Delta: delta, DataAwareRefine: true, Parallelism: par,
				})
			}},
			buildCase{ds.label + "/paw-rect", func(par int) *layout.Layout {
				return Build(data, rows, dom, hist, Params{
					MinRows: minRows, Delta: delta, DisableMultiGroup: true, Parallelism: par,
				})
			}},
			buildCase{ds.label + "/qd-tree", func(par int) *layout.Layout {
				return qdtree.Build(data, rows, dom, hist.Boxes(), qdtree.Params{MinRows: minRows, Parallelism: par})
			}},
			buildCase{ds.label + "/kd-tree", func(par int) *layout.Layout {
				return kdtree.Build(data, rows, dom, kdtree.Params{MinRows: minRows, Parallelism: par})
			}},
		)
	}

	dataFor := func(name string) *dataset.Dataset {
		if len(name) >= 4 && name[:4] == "tpch" {
			return tpch
		}
		return osm
	}

	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			serial := c.build(1)
			parallel := c.build(8)

			if !reflect.DeepEqual(serial.Root, parallel.Root) {
				t.Fatal("parallel tree differs from serial tree")
			}
			if len(serial.Parts) != len(parallel.Parts) {
				t.Fatalf("partition counts differ: serial %d, parallel %d",
					len(serial.Parts), len(parallel.Parts))
			}
			for i := range serial.Parts {
				if !reflect.DeepEqual(serial.Parts[i], parallel.Parts[i]) {
					t.Fatalf("partition %d differs between serial and parallel build", i)
				}
			}
			var sb, pb bytes.Buffer
			if err := serial.Encode(&sb); err != nil {
				t.Fatal(err)
			}
			if err := parallel.Encode(&pb); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sb.Bytes(), pb.Bytes()) {
				t.Fatal("encoded layouts are not byte-identical")
			}

			data := dataFor(c.name)
			parallel.Route(data)
			if err := parallel.Validate(data, 0); err != nil {
				t.Fatalf("parallel layout fails validation: %v", err)
			}
		})
	}

	// A top node that is a Multi-Group split over parMinRows rows: at
	// Parallelism 2 its two split families and its group expansions run
	// concurrently. The layout and every build counter must equal the
	// serial build's.
	t.Run("tpch/paw-multi-root", func(t *testing.T) {
		dom := tpch.Domain()
		hist := workload.Skewed(dom, workload.GenParams{NumQueries: 24, MaxRangeFrac: 0.25, Centers: 2, SigmaFrac: 0.3, Seed: 3})
		var enc [2][]byte
		var snap [2]obs.Snapshot
		for i, par := range []int{1, 2} {
			reg := obs.New()
			l := Build(tpch, allRows(tpch.NumRows()), dom, hist, Params{MinRows: 40, Delta: 0.01 * (dom.Hi[0] - dom.Lo[0]), Parallelism: par, Obs: reg})
			kids := l.Root.Children
			if len(kids) < 3 || kids[len(kids)-1].Desc.Kind() != layout.KindIrregular || tpch.NumRows() < parMinRows {
				t.Fatalf("Parallelism=%d: the top node is not a Multi-Group split over %d rows", par, parMinRows)
			}
			var b bytes.Buffer
			if err := l.Encode(&b); err != nil {
				t.Fatal(err)
			}
			enc[i], snap[i] = b.Bytes(), reg.Snapshot()
		}
		if !bytes.Equal(enc[0], enc[1]) {
			t.Fatal("encoded layouts differ between Parallelism 1 and 2")
		}
		if snap[0].Counter(layout.MetricExpansions) == 0 || snap[0].Counter(layout.MetricMultiAccepted) == 0 {
			t.Fatalf("no Multi-Group split accepted after a bmin expansion: %v", snap[0].Counters)
		}
		if !reflect.DeepEqual(snap[0].Counters, snap[1].Counters) || !reflect.DeepEqual(snap[0].Gauges, snap[1].Gauges) {
			t.Fatalf("build counters differ: Parallelism 1 %v, 2 %v", snap[0].Counters, snap[1].Counters)
		}
	})
}

// TestParallelismLevelsAgree pins the full sweep 1..8 on one PAW setting so
// a worker-count-dependent tie-break cannot sneak in at widths the pairwise
// test does not cover.
func TestParallelismLevelsAgree(t *testing.T) {
	data := dataset.OSMLike(6_000, 5, 104).Normalize()
	dom := data.Domain()
	rows := allRows(data.NumRows())
	hist := workload.Skewed(dom, workload.Defaults(20, 105))
	delta := 0.01 * (dom.Hi[0] - dom.Lo[0])

	var ref *layout.Layout
	for par := 1; par <= 8; par++ {
		l := Build(data, rows, dom, hist, Params{
			MinRows: 30, Delta: delta, DataAwareRefine: true, Parallelism: par,
		})
		if ref == nil {
			ref = l
			continue
		}
		if !reflect.DeepEqual(ref.Root, l.Root) {
			t.Fatalf("Parallelism=%d produced a different tree than Parallelism=1", par)
		}
	}
}

// TestParallelBuildRepeatable re-runs one parallel build several times: the
// goroutine schedule varies between runs, the output must not.
func TestParallelBuildRepeatable(t *testing.T) {
	data := dataset.TPCHLike(8_000, 106).Project(3).Normalize()
	dom := data.Domain()
	rows := allRows(data.NumRows())
	hist := workload.Uniform(dom, workload.Defaults(16, 107))

	build := func() string {
		l := Build(data, rows, dom, hist, Params{MinRows: 25, Delta: 0.01, Parallelism: 8})
		var b bytes.Buffer
		if err := l.Encode(&b); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%x", b.Bytes())
	}
	first := build()
	for i := 0; i < 3; i++ {
		if got := build(); got != first {
			t.Fatalf("run %d produced a different layout", i+2)
		}
	}
}
