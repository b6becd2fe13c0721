package bench

import (
	"fmt"
	"time"

	"paw/internal/blockstore"
	"paw/internal/cluster"
	"paw/internal/core"
	"paw/internal/descriptor"
	"paw/internal/geom"
	"paw/internal/layout"
	"paw/internal/placement"
	"paw/internal/tuner"
	"paw/internal/workload"
)

// pluginTables runs the two §V plugin sweeps on an existing scenario for the
// given methods: (a) precise-descriptor MBR count, (b) storage-tuner space
// budget. Used by Fig23 (PAW only, δ≠0) and Fig25 (all methods, δ=0).
func pluginTables(cfg Config, s *Scenario, methods []string, idPrefix string) []*Table {
	a := &Table{
		ID: idPrefix + "a", Title: "Precise descriptor plugin (OSM)",
		XLabel: "MBR amount", Unit: "scan ratio (% of dataset)",
		Methods: append(append([]string(nil), methods...), MLB),
	}
	allRows := descriptor.AllRows(s.Data.NumRows())
	lb := 100 * layout.LowerBoundRatio(s.Data, s.lbQueries())
	for _, nmbr := range []int{1, 3, 6, 10, 20, 50, 100} {
		row := map[string]float64{MLB: lb}
		for _, m := range methods {
			l := s.Layout(m)
			if _, err := descriptor.Install(l, s.Data, allRows, nmbr); err != nil {
				panic(err) // nmbr >= 1 by construction
			}
			row[m] = 100 * l.ScanRatio(s.Fut.Boxes(), nil)
			descriptor.Uninstall(l)
		}
		a.AddRow(fmt.Sprintf("%d", nmbr), row)
	}
	b := &Table{
		ID: idPrefix + "b", Title: "Storage tuner plugin (OSM)",
		XLabel: "redundant space (% of dataset)", Unit: "scan ratio (% of dataset)",
		Methods: append(append([]string(nil), methods...), MLB),
		Notes:   []string{"extra partitions are selected against the worst-case workload Q*F (§V-B)"},
	}
	ext := s.Hist.Extend(s.Delta).Boxes()
	for _, frac := range []float64{0, 0.01, 0.02, 0.05, 0.10, 0.20} {
		row := map[string]float64{MLB: lb}
		budget := int64(float64(s.Data.TotalBytes()) * frac)
		for _, m := range methods {
			l := s.Layout(m)
			extras := tuner.Select(l, s.Data, ext, budget)
			row[m] = 100 * l.ScanRatio(s.Fut.Boxes(), extras)
		}
		b.AddRow(fmt.Sprintf("%.0f", frac*100), row)
	}
	return []*Table{a, b}
}

// Fig23 reproduces Figure 23: the plugin modules on OSM with the default δ,
// PAW only.
func Fig23(cfg Config) []*Table {
	return pluginTables(cfg, osmScenario(cfg), []string{MPAW}, "fig23")
}

// Fig25 reproduces Figure 25: the plugin modules on OSM at δ=0, for all
// methods.
func Fig25(cfg Config) []*Table {
	data := cfg.osm()
	hist := workload.Uniform(data.Domain(), cfg.genParams(cfg.NumQueries/2, cfg.Seed+17))
	s := NewScenario(cfg, data, hist, 0, cfg.Seed+19)
	tables := pluginTables(cfg, s, []string{MQdTree, MKdTree, MPAW}, "fig25")
	for _, t := range tables {
		t.Title += " at δ=0"
	}
	return tables
}

// Fig24 reproduces Figure 24: the δ=0 special case (§VI-G) re-runs of the
// dimension, query-range, workload-size and distribution sweeps on TPC-H.
func Fig24(cfg Config) []*Table {
	zero := cfg
	zero.DeltaFrac = 0

	a := &Table{
		ID: "fig24a", Title: "δ=0: varying #dims (TPC-H)",
		XLabel: "#dims", Unit: "scan ratio (% of dataset)", Methods: stdMethods,
	}
	for dims := 2; dims <= 7; dims++ {
		c := zero
		c.Dims = dims
		a.AddRow(fmt.Sprintf("%d", dims), tpchScenario(c).MeasureAll(stdMethods))
	}

	b := &Table{
		ID: "fig24b", Title: "δ=0: varying the maximal query range γ (TPC-H)",
		XLabel: "γ (% of domain)", Unit: "scan ratio (% of dataset)", Methods: stdMethods,
	}
	for _, gamma := range []float64{0.01, 0.02, 0.05, 0.10, 0.20, 0.50} {
		c := zero
		c.GammaFrac = gamma
		b.AddRow(fmt.Sprintf("%.0f", gamma*100), tpchScenario(c).MeasureAll(stdMethods))
	}

	cTab := &Table{
		ID: "fig24c", Title: "δ=0: varying the workload size (TPC-H)",
		XLabel: "#queries (QH)", Unit: "scan ratio (% of dataset)", Methods: stdMethods,
	}
	for _, n := range []int{20, 50, 100, 200, 500, 1000, 2000} {
		c := zero
		c.NumQueries = 2 * n
		cTab.AddRow(fmt.Sprintf("%d", n), tpchScenario(c).MeasureAll(stdMethods))
	}

	d := &Table{
		ID: "fig24d", Title: "δ=0: uniform vs skewed workload (TPC-H)",
		XLabel: "workload", Unit: "scan ratio (% of dataset)", Methods: stdMethods,
	}
	for _, kind := range []string{"uniform", "skewed"} {
		data := zero.tpch()
		var hist workload.Workload
		if kind == "uniform" {
			hist = workload.Uniform(data.Domain(), zero.genParams(zero.NumQueries/2, zero.Seed+11))
		} else {
			hist = workload.Skewed(data.Domain(), zero.genParams(zero.NumQueries/2, zero.Seed+11))
		}
		s := NewScenario(zero, data, hist, 0, zero.Seed+13)
		d.AddRow(kind, s.MeasureAll(stdMethods))
	}
	return []*Table{a, b, cTab, d}
}

// AblationAlpha sweeps the Ψ-policy constant α (Eq. 4): small α tries the
// expensive Multi-Group Split deeper in the tree.
func AblationAlpha(cfg Config) []*Table {
	t := &Table{
		ID: "ablation_alpha", Title: "Ψ-policy constant α (TPC-H)",
		XLabel: "α", Unit: "scan ratio (% of dataset)",
		Methods: []string{MPAW, MLB, "partitions", "irregular"},
	}
	data := cfg.tpch()
	hist := workload.Uniform(data.Domain(), cfg.genParams(cfg.NumQueries/2, cfg.Seed+11))
	delta := deltaAbs(data.Domain(), cfg.DeltaFrac)
	base := NewScenario(cfg, data, hist, delta, cfg.Seed+13)
	lb := 100 * layout.LowerBoundRatio(data, base.lbQueries())
	for _, alpha := range []float64{2, 4, 8, 16, 32, 64} {
		l := buildPAWAlpha(base, alpha)
		irr := 0
		for _, p := range l.Parts {
			if p.Desc.Kind() == layout.KindIrregular {
				irr++
			}
		}
		t.AddRow(fmt.Sprintf("%g", alpha), map[string]float64{
			MPAW:         100 * l.ScanRatio(base.Fut.Boxes(), nil),
			MLB:          lb,
			"partitions": float64(l.NumPartitions()),
			"irregular":  float64(irr),
		})
	}
	return []*Table{t}
}

// AblationMultiGroup compares full PAW against rectangles-only PAW across δ,
// isolating the irregular-partition contribution.
func AblationMultiGroup(cfg Config) []*Table {
	t := &Table{
		ID: "ablation_multigroup", Title: "Multi-Group Split on/off across δ (TPC-H)",
		XLabel: "δ (% of domain)", Unit: "scan ratio (% of dataset)",
		Methods: []string{MPAW, MPAWRect, MLB},
	}
	for _, df := range []float64{0, 0.005, 0.01, 0.02, 0.05} {
		c := cfg
		c.DeltaFrac = df
		s := tpchScenario(c)
		t.AddRow(fmt.Sprintf("%g", df*100), s.MeasureAll([]string{MPAW, MPAWRect, MLB}))
	}
	return []*Table{t}
}

// Scenarios operationalises Table I / Figure 1: the three future-workload
// scenarios — exactly the history (Fig. 1a), δ-similar (Fig. 1b), and fully
// unpredictable (Fig. 1c) — against every partitioning method. The paper's
// claim is that PAW is the only method competitive in all three columns.
func Scenarios(cfg Config) []*Table {
	t := &Table{
		ID: "scenarios", Title: "The three workload scenarios of Fig. 1 / Table I (TPC-H)",
		XLabel: "future workload", Unit: "scan ratio (% of dataset)",
		Methods: []string{MQdTree, MKdTree, MPAW, MLB},
		Notes:   []string{"PAW runs with the data-aware refinement on, as §IV-E prescribes for the unpredictable case"},
	}
	s := tpchScenario(cfg)
	dom := s.Data.Domain()
	futures := []struct {
		label string
		w     workload.Workload
	}{
		{"same (Fig. 1a)", s.Hist},
		{"δ-similar (Fig. 1b)", s.Fut},
		{"unpredictable (Fig. 1c)", workload.Uniform(dom, cfg.genParams(len(s.Hist), cfg.Seed+301))},
	}
	for _, f := range futures {
		boxes := f.w.Boxes()
		lbBoxes := boxes
		if cfg.MaxLBQueries > 0 && len(lbBoxes) > cfg.MaxLBQueries {
			lbBoxes = lbBoxes[:cfg.MaxLBQueries]
		}
		t.AddRow(f.label, map[string]float64{
			MQdTree: 100 * s.Layout(MQdTree).ScanRatio(boxes, nil),
			MKdTree: 100 * s.Layout(MKdTree).ScanRatio(boxes, nil),
			MPAW:    100 * s.Layout(MPAWRefine).ScanRatio(boxes, nil),
			MLB:     100 * layout.LowerBoundRatio(s.Data, lbBoxes),
		})
	}
	return []*Table{t}
}

// AblationPlacement measures the workload-aware partition placement
// (future-work direction 2, implemented in internal/placement) against
// round-robin, on simulated end-to-end time.
func AblationPlacement(cfg Config) []*Table {
	t := &Table{
		ID: "ablation_placement", Title: "Partition placement: round-robin vs workload-aware (TPC-H)",
		XLabel: "layout", Unit: "avg end-to-end ms (simulated, no cache)",
		Methods: []string{"round-robin", "optimized", "improvement %"},
	}
	s := tpchScenario(cfg)
	ccfg := cluster.Defaults()
	ccfg.CacheBytes = 0 // isolate placement effects
	for _, m := range []string{MQdTree, MPAW} {
		l := s.Layout(m)
		store := materialize(l, s.Data, blockstore.Config{GroupRows: 512})
		route := func(q geom.Box) []layout.ID { return l.PartitionsFor(q) }
		rr, err := cluster.New(ccfg, store, l).RunWorkload(s.Fut.Boxes(), route)
		if err != nil {
			panic(err)
		}
		assign := placement.Optimize(l, s.Hist.Extend(s.Delta).Boxes(), ccfg.Workers)
		opt, err := cluster.NewWithPlacement(ccfg, store, assign).RunWorkload(s.Fut.Boxes(), route)
		if err != nil {
			panic(err)
		}
		rrMs := float64(rr.Elapsed) / 1e6
		optMs := float64(opt.Elapsed) / 1e6
		t.AddRow(m, map[string]float64{
			"round-robin":   rrMs,
			"optimized":     optMs,
			"improvement %": 100 * (1 - optMs/rrMs),
		})
	}
	return []*Table{t}
}

// AblationEnvelope is Table IV's I/O-cost row again with the one data envelope
// per partition that blockstore.Materialize installs (§V-A with Nmbr = 1, the
// plug-in as the real cluster runs it) beside the region descriptors alone.
func AblationEnvelope(cfg Config) []*Table {
	methods := []string{MKdTree, MQdTree, MPAW}
	t := &Table{
		ID: "ablation_envelope", Title: "Table IV's I/O cost with the store's data envelopes (TPC-H, δ=0)",
		XLabel: "descriptors", Unit: "MB per query (scaled)", Methods: methods,
		Notes: []string{
			"the envelope is the min/max box of the rows a partition holds; a query that meets the partition's region but not that box is dropped at the master",
			"all three methods gain alike: the saving is the data's — l_quantity, l_discount and l_tax take 50, 11 and 9 values, regions are cut in continuous space and narrow ranges land in the gaps — not a property of any layout",
		},
	}
	s := table4Scenario(cfg)
	region, envelope, saving := map[string]float64{}, map[string]float64{}, map[string]float64{}
	for _, m := range methods {
		l := s.Layout(m)
		region[m] = l.AvgCost(s.Fut.Boxes(), nil) / 1e6
		blockstore.Materialize(l, s.Data, blockstore.Config{GroupRows: 512})
		envelope[m] = l.AvgCost(s.Fut.Boxes(), nil) / 1e6
		descriptor.Uninstall(l)
		saving[m] = 100 * (1 - envelope[m]/region[m])
	}
	t.AddRow("regions only (table4)", region)
	t.AddRow("regions + data envelope", envelope)
	t.AddRow("saving %", saving)
	return []*Table{t}
}

// AblationBeam compares greedy PAW-Construction against the beam-search
// variant the paper sketches as future work (§IV-D), across beam widths.
func AblationBeam(cfg Config) []*Table {
	t := &Table{
		ID: "ablation_beam", Title: "Greedy vs beam-search construction (TPC-H)",
		XLabel: "beam width", Unit: "scan ratio (% of dataset) / build seconds",
		Methods: []string{"scan ratio", "build (s)", "partitions"},
		Notes:   []string{"width 0 is the greedy Algorithm 3; beam keeps the better of {beam, greedy}"},
	}
	s := tpchScenario(cfg)
	dom := s.Data.Domain()
	measure := func(l *layout.Layout, secs float64) map[string]float64 {
		l.Route(s.Data)
		return map[string]float64{
			"scan ratio": 100 * l.ScanRatio(s.Fut.Boxes(), nil),
			"build (s)":  secs,
			"partitions": float64(l.NumPartitions()),
		}
	}
	start := time.Now()
	greedy := core.Build(s.Data, s.Sample, dom, s.Hist, core.Params{MinRows: s.MinRows, Delta: s.Delta, Parallelism: s.Cfg.Parallelism})
	t.AddRow("0 (greedy)", measure(greedy, time.Since(start).Seconds()))
	for _, width := range []int{2, 4, 8} {
		start = time.Now()
		l := core.BuildBeam(s.Data, s.Sample, dom, s.Hist, core.BeamParams{
			Params: core.Params{MinRows: s.MinRows, Delta: s.Delta, Parallelism: s.Cfg.Parallelism},
			Width:  width, Branch: 3,
		})
		t.AddRow(fmt.Sprintf("%d", width), measure(l, time.Since(start).Seconds()))
	}
	return []*Table{t}
}

// buildPAWAlpha builds PAW with a custom α on an existing scenario without
// disturbing its memoised layouts.
func buildPAWAlpha(s *Scenario, alpha float64) *layout.Layout {
	l := core.Build(s.Data, s.Sample, s.Data.Domain(), s.Hist, core.Params{
		MinRows: s.MinRows, Delta: s.Delta, Alpha: alpha,
	})
	l.Route(s.Data)
	return l
}
