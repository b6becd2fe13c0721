package bench

import (
	"runtime"
	"testing"

	"paw/internal/core"
	"paw/internal/kdtree"
	"paw/internal/qdtree"
	"paw/internal/workload"
)

// ConstructionResult is one (method, workers) cell of the construction
// benchmark: pure layout-generation time and allocation pressure, plus the
// wall-clock speedup against the same method built serially.
type ConstructionResult struct {
	Method          string  `json:"method"`
	Workers         int     `json:"workers"`
	NsPerOp         int64   `json:"ns_per_op"`
	AllocsPerOp     int64   `json:"allocs_per_op"`
	BytesPerOp      int64   `json:"bytes_per_op"`
	SpeedupVsSerial float64 `json:"speedup_vs_serial"`
}

// ConstructionReport is the machine-readable construction-performance
// snapshot written to BENCH_construction.json so the perf trajectory is
// comparable across PRs. Speedups are only meaningful relative to the
// recorded GOMAXPROCS/NumCPU: on a single-core host every worker count
// collapses to serial execution.
type ConstructionReport struct {
	Meta        Meta                 `json:"meta"`
	GOMAXPROCS  int                  `json:"gomaxprocs"`
	NumCPU      int                  `json:"num_cpu"`
	TPCHRows    int                  `json:"tpch_rows"`
	SampleRows  int                  `json:"sample_rows"`
	MinRows     int                  `json:"min_rows"`
	HistQueries int                  `json:"hist_queries"`
	Results     []ConstructionResult `json:"results"`
}

// ConstructionBench measures layout construction (no routing) for every
// builder at each worker count, on the configured TPC-H scenario. The
// layouts are identical at every worker count (see the determinism
// regression test); only build time and allocations vary.
func ConstructionBench(cfg Config, workers []int) ConstructionReport {
	data := cfg.tpch()
	dom := data.Domain()
	hist := workload.Uniform(dom, cfg.genParams(cfg.NumQueries/2, cfg.Seed+11))
	sample := data.Sample(cfg.sampleRowsFor(data.NumRows()), cfg.Seed+7)
	minRows := cfg.minRowsFor(data.NumRows())
	delta := deltaAbs(dom, cfg.DeltaFrac)
	queries := hist.Boxes()

	builders := []struct {
		name  string
		build func(par int)
	}{
		{MPAW, func(par int) {
			core.Build(data, sample, dom, hist, core.Params{MinRows: minRows, Delta: delta, Parallelism: par})
		}},
		{MPAWRefine, func(par int) {
			core.Build(data, sample, dom, hist, core.Params{
				MinRows: minRows, Delta: delta, DataAwareRefine: true, Parallelism: par,
			})
		}},
		{MQdTree, func(par int) {
			qdtree.Build(data, sample, dom, queries, qdtree.Params{MinRows: minRows, Parallelism: par})
		}},
		{MKdTree, func(par int) {
			kdtree.Build(data, sample, dom, kdtree.Params{MinRows: minRows, Parallelism: par})
		}},
	}

	rep := ConstructionReport{
		Meta:        Meta{Schema: ConstructionSchema},
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		TPCHRows:    data.NumRows(),
		SampleRows:  len(sample),
		MinRows:     minRows,
		HistQueries: len(queries),
	}
	for _, b := range builders {
		var serialNs int64
		for _, w := range workers {
			r := testing.Benchmark(func(tb *testing.B) {
				tb.ReportAllocs()
				for i := 0; i < tb.N; i++ {
					b.build(w)
				}
			})
			res := ConstructionResult{
				Method:      b.name,
				Workers:     w,
				NsPerOp:     r.NsPerOp(),
				AllocsPerOp: r.AllocsPerOp(),
				BytesPerOp:  r.AllocedBytesPerOp(),
			}
			if w == 1 {
				serialNs = res.NsPerOp
			}
			if serialNs > 0 && res.NsPerOp > 0 {
				res.SpeedupVsSerial = float64(serialNs) / float64(res.NsPerOp)
			}
			rep.Results = append(rep.Results, res)
		}
	}
	return rep
}
