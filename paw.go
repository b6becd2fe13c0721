// Package paw is a from-scratch Go implementation of PAW — "Data
// Partitioning Meets Workload Variance" (Li, Yiu, Chan; ICDE 2022) — a
// workload-aware data-partitioning technique for block-based storage that is
// robust to future query workloads deviating from the historical workload.
//
// The package is a facade over the implementation packages:
//
//   - Build constructs partition layouts with PAW, the greedy Qd-tree
//     baseline, or a k-d tree baseline.
//   - EstimateDelta implements the paper's §IV-E heuristic for unknown
//     workload-variance thresholds.
//   - InstallPreciseDescriptors and SelectExtraPartitions are the §V plugin
//     modules (precise descriptors, storage tuner).
//   - NewMaster builds the Fig. 4 master node: SQL → range queries →
//     partition-ID lists.
//   - GenerateTPCH / GenerateOSM and the workload generators reproduce the
//     paper's evaluation datasets and query workloads at laptop scale.
//
// A minimal end-to-end use:
//
//	data := paw.GenerateTPCH(600_000, 1)
//	hist := paw.UniformWorkload(data.Domain(), 50, 2)
//	l, err := paw.Build(data, hist, paw.Options{
//		Method:  paw.MethodPAW,
//		MinRows: 1000,
//		Delta:   paw.FractionOfDomain(data.Domain(), 0.01),
//	})
//	ids := l.PartitionsFor(someQuery)
package paw

import (
	"fmt"

	"paw/internal/core"
	"paw/internal/dataset"
	"paw/internal/descriptor"
	"paw/internal/geom"
	"paw/internal/kdtree"
	"paw/internal/layout"
	"paw/internal/qdtree"
	"paw/internal/router"
	"paw/internal/tuner"
	"paw/internal/workload"
)

// Re-exported core types. Aliases keep the implementation packages internal
// while letting callers hold and pass the real types.
type (
	// Dataset is a column-major numeric table (see GenerateTPCH).
	Dataset = dataset.Dataset
	// Workload is an ordered collection of range queries.
	Workload = workload.Workload
	// Query is one range query of a workload.
	Query = workload.Query
	// Layout is a sealed (and, after routing, materialised) partition
	// layout.
	Layout = layout.Layout
	// Partition is one physical partition of a layout.
	Partition = layout.Partition
	// Extras are the storage tuner's redundant partitions.
	Extras = layout.Extras
	// Box is a closed axis-aligned range (query region or descriptor).
	Box = geom.Box
	// Point is a d-dimensional point.
	Point = geom.Point
	// Master is the query-routing master node (Fig. 4).
	Master = router.Master
	// Plan is a routed query plan.
	Plan = router.Plan
)

// Method selects the partitioning algorithm.
type Method string

// Supported partitioning methods.
const (
	// MethodPAW is the paper's contribution (§IV).
	MethodPAW Method = "paw"
	// MethodQdTree is the greedy Qd-tree baseline (Yang et al., 2020).
	MethodQdTree Method = "qd-tree"
	// MethodKdTree is the data-aware k-d tree baseline.
	MethodKdTree Method = "kd-tree"
)

// Options configures Build.
type Options struct {
	// Method selects the algorithm; defaults to MethodPAW.
	Method Method
	// MinRows is the minimum partition size bmin in rows of the build
	// input (the paper's 128 MB block constraint, expressed in rows).
	MinRows int
	// Delta is the workload-variance threshold δ in absolute units of the
	// query space (PAW only). Use FractionOfDomain or EstimateDelta to
	// derive it. Zero reproduces the exact-workload special case (§VI-G).
	Delta float64
	// Alpha is PAW's Ψ-policy constant (Eq. 4); defaults to 8.
	Alpha float64
	// DataAwareRefine enables PAW's §IV-E refinement of query-free leaves.
	DataAwareRefine bool
	// DisableMultiGroup restricts PAW to rectangular splits (ablation).
	DisableMultiGroup bool
	// Parallelism bounds the construction worker pool shared by all
	// methods: 0 (the default) selects runtime.GOMAXPROCS(0), 1 forces a
	// serial build. Construction is deterministic at any setting — the
	// parallel build produces a layout identical to the serial one — so
	// Parallelism only trades build time for cores.
	Parallelism int
	// SampleRows builds the logical layout on a random sample of this many
	// rows (0 = use every row), mirroring the paper's protocol (§VI-A).
	// MinRows applies to the sample.
	SampleRows int
	// SampleSeed drives sample selection.
	SampleSeed int64
	// Route controls whether the full dataset is routed through the new
	// layout immediately (default true via RouteAfterBuild; set
	// SkipRouting to leave partition sizes unset).
	SkipRouting bool
}

// Build constructs a partition layout for the historical workload over the
// dataset and, unless opts.SkipRouting is set, routes the full dataset
// through it so partition sizes and costs are available.
func Build(data *Dataset, hist Workload, opts Options) (*Layout, error) {
	if data == nil || data.NumRows() == 0 {
		return nil, fmt.Errorf("paw: empty dataset")
	}
	if opts.MinRows < 1 {
		return nil, fmt.Errorf("paw: MinRows must be >= 1, got %d", opts.MinRows)
	}
	rows := allRows(data.NumRows())
	if opts.SampleRows > 0 && opts.SampleRows < data.NumRows() {
		rows = data.Sample(opts.SampleRows, opts.SampleSeed)
	}
	domain := data.Domain()
	var l *Layout
	switch opts.Method {
	case MethodPAW, "":
		l = core.Build(data, rows, domain, hist, core.Params{
			MinRows:           opts.MinRows,
			Alpha:             opts.Alpha,
			Delta:             opts.Delta,
			DataAwareRefine:   opts.DataAwareRefine,
			DisableMultiGroup: opts.DisableMultiGroup,
			Parallelism:       opts.Parallelism,
		})
	case MethodQdTree:
		l = qdtree.Build(data, rows, domain, hist.Boxes(), qdtree.Params{MinRows: opts.MinRows, Parallelism: opts.Parallelism})
	case MethodKdTree:
		l = kdtree.Build(data, rows, domain, kdtree.Params{MinRows: opts.MinRows, Parallelism: opts.Parallelism})
	default:
		return nil, fmt.Errorf("paw: unknown method %q", opts.Method)
	}
	if !opts.SkipRouting {
		l.Route(data)
	}
	return l, nil
}

// EstimateDelta estimates the workload-variance threshold δ from the
// historical workload alone (§IV-E): the workload is split into two halves
// by timestamp and the minimal δ′ making them δ′-similar is returned.
func EstimateDelta(hist Workload) (float64, error) {
	return workload.EstimateDelta(hist)
}

// AreSimilar tests Definition 2: whether hist and future are delta-similar.
func AreSimilar(hist, future Workload, delta float64) (bool, error) {
	return workload.AreSimilar(hist, future, delta)
}

// FractionOfDomain converts a relative threshold (e.g. the paper's default
// δ = 1% of the domain length) into the absolute units Build expects, using
// the first dimension's extent.
func FractionOfDomain(domain Box, frac float64) float64 {
	return frac * (domain.Hi[0] - domain.Lo[0])
}

// InstallPreciseDescriptors attaches the §V-A plugin to the layout: every
// partition gets nmbr covering MBRs extracted R-tree-style from its records.
// Returns the master-memory overhead in bytes.
func InstallPreciseDescriptors(l *Layout, data *Dataset, nmbr int) (int64, error) {
	return descriptor.Install(l, data, descriptor.AllRows(data.NumRows()), nmbr)
}

// SelectExtraPartitions runs the §V-B storage tuner: redundant partitions
// are selected greedily by gain (Eq. 5) within the byte budget. The returned
// extras plug into Layout.QueryCost (Fig. 23b/25b); nothing serves them.
func SelectExtraPartitions(l *Layout, data *Dataset, queries []Box, budgetBytes int64) Extras {
	return tuner.Select(l, data, queries, budgetBytes)
}

// NewMaster wires the routed layout with a SQL schema (column names in
// dimension order), yielding the Fig. 4 master node.
func NewMaster(l *Layout, columns []string) (*Master, error) {
	return router.NewMaster(l, columns)
}

// GenerateTPCH generates the scaled TPC-H lineitem stand-in: 8 uniform
// numeric attributes with lineitem-like domains.
func GenerateTPCH(rows int, seed int64) *Dataset { return dataset.TPCHLike(rows, seed) }

// GenerateOSM generates the scaled OSM stand-in: a skewed 2-d point cloud.
func GenerateOSM(rows, clusters int, seed int64) *Dataset {
	return dataset.OSMLike(rows, clusters, seed)
}

// UniformWorkload generates n queries with uniform centers and the paper's
// default maximal range (γ = 10% of the domain).
func UniformWorkload(domain Box, n int, seed int64) Workload {
	return workload.Uniform(domain, workload.Defaults(n, seed))
}

// SkewedWorkload generates n queries from a Gaussian mixture with the
// paper's default parameters (#C = 10 centers, σ = 10% of γ).
func SkewedWorkload(domain Box, n int, seed int64) Workload {
	return workload.Skewed(domain, workload.Defaults(n, seed))
}

// FutureWorkload derives a δ-similar future workload: ratio perturbed copies
// of every historical query, each bound moving at most delta.
func FutureWorkload(hist Workload, delta float64, ratio int, seed int64) Workload {
	return workload.Future(hist, delta, ratio, seed)
}

// LowerBoundRatio returns LBCost as a fraction of the dataset size: the
// theoretical floor no layout can beat (scan exactly the result).
func LowerBoundRatio(data *Dataset, queries []Box) float64 {
	return layout.LowerBoundRatio(data, queries)
}

func allRows(n int) []int {
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	return rows
}
