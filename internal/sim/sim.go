// Package sim is the deterministic simulation harness for the invariant
// oracles (internal/invariant): a seeded scenario generator that enumerates
// datasets × workloads × δ × policies Ψ(α), builds layouts with every
// builder (PAW, Qd-tree, k-d tree) at chosen parallelism, and hands
// each sealed layout plus its construction inputs to the oracle suite.
//
// Everything is a pure function of the scenario seed: the same seed yields
// the same dataset, sample, workload, layout and probe decisions, so a
// failing (scenario, method) pair reproduces exactly from its name.
package sim

import (
	"fmt"

	"paw/internal/core"
	"paw/internal/dataset"
	"paw/internal/descriptor"
	"paw/internal/geom"
	"paw/internal/invariant"
	"paw/internal/layout"
	"paw/internal/obs"
	"paw/internal/tuner"
	"paw/internal/workload"
)

// Builder method names.
const (
	MethodPAW    = string(core.MethodPAW)
	MethodQdTree = string(core.MethodQdTree)
	MethodKdTree = string(core.MethodKdTree)
)

// Methods returns every builder the harness drives.
func Methods() []string {
	return []string{MethodPAW, MethodQdTree, MethodKdTree}
}

// Scenario is one deterministic simulation setting.
type Scenario struct {
	// Name identifies the scenario; it encodes the generator choices.
	Name string
	// Seed drives every sampled decision downstream (probes, futures).
	Seed int64
	// Data is the full dataset; Domain its MBR (the construction domain).
	Data   *dataset.Dataset
	Domain geom.Box
	// Sample are the construction sample rows.
	Sample []int
	// Hist is the historical workload QH.
	Hist workload.Workload
	// Delta is the workload-variance threshold δ (absolute units).
	Delta float64
	// MinRows is bmin in sample rows.
	MinRows int
	// Alpha is PAW's Multi-Group admission factor (Ψ(α), Eq. 4).
	Alpha float64
	// Refine enables PAW's data-aware refinement (§IV-E), exercising
	// irregular refinement subtrees.
	Refine bool
}

// Scenarios generates n deterministic scenarios from a base seed. The
// generator cycles dataset families (uniform 2-d/3-d, TPC-H-like,
// OSM-like), workload shapes (uniform, skewed), δ as a fraction of the
// domain extent (0, 1%, 3%), bmin and α, so a small n already covers every
// combination the oracles treat differently.
func Scenarios(n int, baseSeed int64) []Scenario {
	out := make([]Scenario, 0, n)
	for i := 0; i < n; i++ {
		seed := baseSeed + int64(i)*101
		rows := 1500 + (i%4)*400

		var data *dataset.Dataset
		var family string
		switch i % 4 {
		case 0:
			data, family = dataset.Uniform(rows, 2, seed), "uni2"
		case 1:
			data, family = dataset.TPCHLike(rows, seed), "tpch"
		case 2:
			data, family = dataset.OSMLike(rows, 6, seed), "osm"
		default:
			data, family = dataset.Uniform(rows, 3, seed), "uni3"
		}
		domain := data.Domain()

		nq := 12 + (i%3)*6
		spec := workload.Spec{Kind: workload.KindUniform, GenParams: workload.Defaults(nq, seed+1)}
		shape := "uniW"
		if i%2 == 1 {
			spec.Kind, shape = workload.KindSkewed, "skewW"
		}
		hist := workload.Generate(domain, spec)

		deltaFrac := []float64{0, 0.01, 0.03}[i%3]
		delta := deltaFrac * minExtent(domain)

		sc := Scenario{
			Seed:    seed,
			Data:    data,
			Domain:  domain,
			Sample:  data.Sample(min(600, rows), seed+2),
			Hist:    hist,
			Delta:   delta,
			MinRows: 20 + (i%2)*15,
			Alpha:   []float64{4, 8, 12}[i%3],
			Refine:  i%2 == 1,
		}
		sc.Name = fmt.Sprintf("s%02d-%s-%s-d%.0f%%-b%d-a%g", i, family, shape,
			deltaFrac*100, sc.MinRows, sc.Alpha)
		if sc.Refine {
			sc.Name += "-refine"
		}
		out = append(out, sc)
	}
	return out
}

// Build constructs (and routes) the scenario's layout with the given method
// at the given parallelism. Identical inputs must yield byte-identical
// layouts at any parallelism — the harness asserts this via layout.Digest.
func Build(sc Scenario, method string, parallelism int) *layout.Layout {
	return BuildObserved(sc, method, parallelism, nil)
}

// BuildObserved is Build with construction telemetry attached to reg (nil
// disables it, making this identical to Build). Telemetry is strictly
// observational: the digest oracle asserts layouts are byte-identical with
// it on or off.
func BuildObserved(sc Scenario, method string, parallelism int, reg *obs.Registry) *layout.Layout {
	hist := sc.Hist
	if method == MethodQdTree {
		hist = sc.Hist.Extend(sc.Delta)
	}
	l, err := core.BuildMethod(core.Method(method), sc.Data, sc.Sample, sc.Domain, hist, core.Params{
		MinRows: sc.MinRows, Alpha: sc.Alpha, Delta: sc.Delta,
		DataAwareRefine: sc.Refine, Parallelism: parallelism, Obs: reg,
	})
	if err != nil {
		panic("sim: " + err.Error())
	}
	l.RouteParallel(sc.Data, parallelism)
	return l
}

// Inputs assembles the oracle inputs for a scenario/method pair.
func Inputs(sc Scenario, method string) invariant.Inputs {
	return invariant.Inputs{
		Data:    sc.Data,
		Rows:    sc.Sample,
		Domain:  sc.Domain,
		Hist:    sc.Hist,
		Delta:   sc.Delta,
		MinRows: sc.MinRows,
		Greedy:  core.Method(method).Greedy(),
		Seed:    sc.Seed,
	}
}

// Check builds the scenario with the method at the given parallelism and
// runs the full oracle suite, optionally with precise descriptors installed
// (withPrecise) and the storage tuner exercised (tunerBudget > 0).
func Check(sc Scenario, method string, parallelism int, withPrecise bool, tunerBudget int64) error {
	l := Build(sc, method, parallelism)
	if withPrecise {
		if _, err := descriptor.Install(l, sc.Data, descriptor.AllRows(sc.Data.NumRows()), 4); err != nil {
			return fmt.Errorf("sim: precise install: %w", err)
		}
	}
	if err := invariant.Check(l, Inputs(sc, method)); err != nil {
		return err
	}
	if tunerBudget > 0 {
		queries := sc.Hist.Extend(sc.Delta).Boxes()
		extras := tuner.Select(l, sc.Data, queries, tunerBudget)
		if err := invariant.CheckTuner(l, sc.Data, queries, extras, tunerBudget); err != nil {
			return err
		}
	}
	return nil
}

func minExtent(b geom.Box) float64 {
	m := b.Hi[0] - b.Lo[0]
	for d := 1; d < b.Dims(); d++ {
		if e := b.Hi[d] - b.Lo[d]; e < m {
			m = e
		}
	}
	return m
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
