package bench

import (
	"strings"
	"testing"

	"paw/internal/workload"
)

// tinyConfig keeps harness tests fast.
func tinyConfig() Config {
	c := DefaultConfig()
	c.TPCHRows = 12_000
	c.OSMRows = 10_000
	c.NumQueries = 40
	c.MaxLBQueries = 20
	return c
}

func TestDefaultConfigMatchesTableIII(t *testing.T) {
	c := DefaultConfig()
	if c.NumQueries != 100 || c.Dims != 4 || c.DeltaFrac != 0.01 ||
		c.GammaFrac != 0.10 || c.Centers != 10 || c.SigmaFrac != 0.10 {
		t.Errorf("defaults diverge from Table III: %+v", c)
	}
	if c.BlocksTarget != 600 {
		t.Errorf("blocks target %d, want 600 (75GB/128MB)", c.BlocksTarget)
	}
}

func TestMinRowsScaling(t *testing.T) {
	c := DefaultConfig()
	m := c.minRowsFor(c.TPCHRows)
	sample := c.sampleRowsFor(c.TPCHRows)
	blocks := sample / m
	if blocks < 400 || blocks > 700 {
		t.Errorf("sample/bmin = %d blocks, want ≈600", blocks)
	}
	if c.minRowsFor(10) != 2 {
		t.Errorf("tiny datasets must floor bmin at 2")
	}
}

func TestScenarioBasics(t *testing.T) {
	cfg := tinyConfig()
	s := tpchScenario(cfg)
	if len(s.Hist) != cfg.NumQueries/2 || len(s.Fut) != cfg.NumQueries/2 {
		t.Fatalf("hist=%d fut=%d", len(s.Hist), len(s.Fut))
	}
	// Future workload is δ-similar by construction.
	ok, err := workload.AreSimilar(s.Hist, s.Fut, s.Delta*(1+1e-9))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("scenario future workload not δ-similar to history")
	}
	// Layout memoisation.
	l1 := s.Layout(MPAW)
	l2 := s.Layout(MPAW)
	if l1 != l2 {
		t.Error("Layout must memoise")
	}
}

func TestScenarioMethodOrdering(t *testing.T) {
	cfg := tinyConfig()
	s := tpchScenario(cfg)
	got := s.MeasureAll(stdMethods)
	// The paper's headline ordering on the default setting: LB <= PAW and
	// PAW < Qd-tree.
	if got[MLB] > got[MPAW]+1e-9 {
		t.Errorf("LB %v above PAW %v", got[MLB], got[MPAW])
	}
	if got[MPAW] >= got[MQdTree] {
		t.Errorf("PAW %v not below Qd-tree %v", got[MPAW], got[MQdTree])
	}
	for m, v := range got {
		if v < 0 || v > 100 {
			t.Errorf("%s ratio %v out of [0,100]", m, v)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table2", "table4", "fig15", "fig16", "fig17", "fig18", "fig19",
		"fig20", "fig21", "fig22a", "fig22b", "fig23", "fig24", "fig25",
		"ablation_alpha", "ablation_multigroup", "ablation_envelope", "scenarios",
	}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(reg), len(want))
	}
	for i, id := range want {
		if reg[i].ID != id {
			t.Errorf("registry[%d] = %q, want %q", i, reg[i].ID, id)
		}
		if _, ok := Find(id); !ok {
			t.Errorf("Find(%q) failed", id)
		}
	}
	if _, ok := Find("nope"); ok {
		t.Error("Find of unknown ID must fail")
	}
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{
		ID: "x", Title: "T", XLabel: "p", Unit: "u",
		Methods: []string{"A", "B"},
		Notes:   []string{"n1"},
	}
	tab.AddRow("1", map[string]float64{"A": 1.5, "B": 0.0001})
	tab.AddRow("2", map[string]float64{"A": 2000})
	txt := tab.Format()
	for _, want := range []string{"x — T", "unit: u", "p", "A", "B", "1.500", "0.00010", "2000", "-", "note: n1"} {
		if !strings.Contains(txt, want) {
			t.Errorf("Format missing %q in:\n%s", want, txt)
		}
	}
	md := tab.Markdown()
	for _, want := range []string{"| p |", "| A |", "| 1 |", "---|"} {
		if !strings.Contains(md, want) {
			t.Errorf("Markdown missing %q in:\n%s", want, md)
		}
	}
}

// TestExperimentsRunTiny executes every registered experiment on a tiny
// configuration and sanity-checks the outputs. This is the harness's
// integration test; the real numbers come from cmd/pawbench.
func TestExperimentsRunTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	cfg := tinyConfig()
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables := e.Run(cfg)
			if len(tables) == 0 {
				t.Fatal("experiment produced no tables")
			}
			for _, tab := range tables {
				if len(tab.Rows) == 0 {
					t.Fatalf("table %s has no rows", tab.ID)
				}
				for _, r := range tab.Rows {
					for m, v := range r.Values {
						// Delta-style columns may legitimately go negative.
						if m == "improvement %" {
							continue
						}
						if v < 0 {
							t.Errorf("table %s row %s method %s negative value %v", tab.ID, r.X, m, v)
						}
					}
				}
				if tab.Format() == "" || tab.Markdown() == "" {
					t.Error("empty rendering")
				}
			}
		})
	}
}

// TestMaterializeLeavesScenarioLayoutsAlone: a scenario's layouts are cached
// and shared, and blockstore.Materialize installs data envelopes on the layout
// it is handed; an experiment that materialises must not switch the §V-A
// plug-in on for every experiment after it (table4 would read 0.0071 MB for
// 0.034).
func TestMaterializeLeavesScenarioLayoutsAlone(t *testing.T) {
	s := table4Scenario(tinyConfig())
	l := s.Layout(MPAW)
	before := l.AvgCost(s.Fut.Boxes(), nil)
	endToEnd(s, []string{MPAW})
	for _, p := range l.Parts {
		if p.Precise != nil {
			t.Fatalf("partition %d kept precise descriptor %v", p.ID, p.Precise)
		}
	}
	if after := l.AvgCost(s.Fut.Boxes(), nil); after != before {
		t.Errorf("modelled cost moved from %v to %v", before, after)
	}
}

// TestSubLinearEndToEnd checks the paper's Fig. 15 observation on the real
// stack: from the 8 GB to the 75 GB size, Qd-tree's measured median time
// grows by less than half the factor its I/O grows by. (The method ordering
// is not asserted: on tiny sizes it is inside the host's noise.)
func TestSubLinearEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("serves three sizes on live clusters")
	}
	tabs := Fig15(tinyConfig())
	io, tm := tabs[0].Rows, tabs[1].Rows
	first, last := 0, len(io)-1
	ioRatio := io[last].Values[MQdTree] / io[first].Values[MQdTree]
	timeRatio := tm[last].Values[MQdTree] / tm[first].Values[MQdTree]
	t.Logf("Qd-tree %s→%s: I/O ×%.2f, median time ×%.2f", io[first].X, io[last].X, ioRatio, timeRatio)
	if timeRatio >= ioRatio/2 {
		t.Errorf("time grew ×%.2f, not below half the I/O growth ×%.2f", timeRatio, ioRatio)
	}
}
