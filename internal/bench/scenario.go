package bench

import (
	"fmt"

	"paw/internal/core"
	"paw/internal/dataset"
	"paw/internal/geom"
	"paw/internal/layout"
	"paw/internal/workload"
)

// Method labels, matching the paper's legends.
const (
	MQdTree     = "Qd-tree"
	MKdTree     = "k-d tree"
	MPAW        = "PAW"
	MLB         = "LB-Cost"
	MPAWUnknown = "PAW-unknown"
	MPAWRefine  = "PAW-refine" // PAW + data-aware refinement (§IV-E)
	MPAWRect    = "PAW-rect"   // ablation: Multi-Group Split disabled
)

// Scenario is one measurement setting: a dataset, a historical workload, a
// future workload and a δ.
type Scenario struct {
	Cfg     Config
	Data    *dataset.Dataset
	Sample  []int
	MinRows int // bmin in sample rows
	Hist    workload.Workload
	Fut     workload.Workload
	Delta   float64

	layouts map[string]*layout.Layout
}

// NewScenario assembles a scenario; the future workload holds the same
// number of queries as the historical one (Table III's 50/50 split) and is
// δ-similar by construction.
func NewScenario(cfg Config, data *dataset.Dataset, hist workload.Workload, delta float64, futSeed int64) *Scenario {
	return &Scenario{
		Cfg:     cfg,
		Data:    data,
		Sample:  data.Sample(cfg.sampleRowsFor(data.NumRows()), cfg.Seed+7),
		MinRows: cfg.minRowsFor(data.NumRows()),
		Hist:    hist,
		Fut:     workload.Future(hist, delta, 1, futSeed),
		Delta:   delta,
	}
}

// Layout builds (and memoises) the layout for a method, routed over the
// full dataset.
func (s *Scenario) Layout(method string) *layout.Layout {
	if l, ok := s.layouts[method]; ok {
		return l
	}
	l := s.buildUnrouted(method)
	l.Route(s.Data)
	if s.layouts == nil {
		s.layouts = make(map[string]*layout.Layout)
	}
	s.layouts[method] = l
	return l
}

// buildUnrouted builds a method's layout without routing; Table II times it
// as pure layout generation. Every PAW variant is core.Build with its own
// parameters.
func (s *Scenario) buildUnrouted(method string) *layout.Layout {
	m := core.MethodPAW
	p := core.Params{MinRows: s.MinRows, Delta: s.Delta, Parallelism: s.Cfg.Parallelism}
	switch method {
	case MQdTree:
		m = core.MethodQdTree
	case MKdTree:
		m = core.MethodKdTree
	case MPAW:
	case MPAWRefine:
		p.DataAwareRefine = true
	case MPAWRect:
		p.DisableMultiGroup = true
	case MPAWUnknown:
		// §IV-E: estimate δ′ from the history alone and guard against
		// underestimation with the data-aware refinement.
		est, err := workload.EstimateDelta(s.Hist)
		if err != nil {
			est = 0
		}
		p.Delta, p.DataAwareRefine = est, true
	default:
		panic(fmt.Sprintf("bench: unknown method %q", method))
	}
	l, err := core.BuildMethod(m, s.Data, s.Sample, s.Data.Domain(), s.Hist, p)
	if err != nil {
		panic("bench: " + err.Error())
	}
	return l
}

// ScanRatioPct measures a method's average scan ratio over the future
// workload, in percent of the dataset (the paper's y-axis). MLB returns the
// theoretical lower bound.
func (s *Scenario) ScanRatioPct(method string) float64 {
	if method == MLB {
		return 100 * layout.LowerBoundRatio(s.Data, s.lbQueries())
	}
	return 100 * s.Layout(method).ScanRatio(s.Fut.Boxes(), nil)
}

// lbQueries caps the exact-lower-bound evaluation (one full scan per query).
func (s *Scenario) lbQueries() []geom.Box {
	boxes := s.Fut.Boxes()
	if max := s.Cfg.MaxLBQueries; max > 0 && len(boxes) > max {
		boxes = boxes[:max]
	}
	return boxes
}

// MeasureAll returns the scan ratios (percent) of the given methods.
func (s *Scenario) MeasureAll(methods []string) map[string]float64 {
	out := make(map[string]float64, len(methods))
	for _, m := range methods {
		out[m] = s.ScanRatioPct(m)
	}
	return out
}
