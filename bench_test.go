// Benchmarks regenerating every table and figure of the paper's evaluation
// (one Benchmark per experiment; see DESIGN.md §4 for the index), plus
// micro-benchmarks of the core building blocks. The per-experiment benches
// run on a reduced configuration so `go test -bench=.` stays tractable; use
// cmd/pawbench for full-scale numbers.
package paw

import (
	"fmt"
	"testing"

	"paw/internal/bench"
	"paw/internal/colstore"
	"paw/internal/dataset"
	"paw/internal/workload"
)

// benchConfig is the reduced configuration for per-experiment benchmarks.
func benchConfig() bench.Config {
	c := bench.DefaultConfig()
	c.TPCHRows = 24_000
	c.OSMRows = 20_000
	c.NumQueries = 40
	c.MaxLBQueries = 20
	return c
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := bench.Find(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	cfg := benchConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables := e.Run(cfg)
		if len(tables) == 0 {
			b.Fatal("no tables")
		}
	}
}

// One benchmark per table/figure of the paper (DESIGN.md §4).

func BenchmarkTable2Construction(b *testing.B)  { runExperiment(b, "table2") }
func BenchmarkTable4DefaultDelta0(b *testing.B) { runExperiment(b, "table4") }
func BenchmarkFig15Scalability(b *testing.B)    { runExperiment(b, "fig15") }
func BenchmarkFig16Dimensions(b *testing.B)     { runExperiment(b, "fig16") }
func BenchmarkFig17QueryRange(b *testing.B)     { runExperiment(b, "fig17") }
func BenchmarkFig18WorkloadSize(b *testing.B)   { runExperiment(b, "fig18") }
func BenchmarkFig19Delta(b *testing.B)          { runExperiment(b, "fig19") }
func BenchmarkFig20Distribution(b *testing.B)   { runExperiment(b, "fig20") }
func BenchmarkFig21SkewParams(b *testing.B)     { runExperiment(b, "fig21") }
func BenchmarkFig22aUnknownDelta(b *testing.B)  { runExperiment(b, "fig22a") }
func BenchmarkFig22bRandomMix(b *testing.B)     { runExperiment(b, "fig22b") }
func BenchmarkFig23Plugins(b *testing.B)        { runExperiment(b, "fig23") }
func BenchmarkFig24Delta0Sweeps(b *testing.B)   { runExperiment(b, "fig24") }
func BenchmarkFig25Delta0Plugins(b *testing.B)  { runExperiment(b, "fig25") }
func BenchmarkAblationAlpha(b *testing.B)       { runExperiment(b, "ablation_alpha") }
func BenchmarkAblationMultiGroup(b *testing.B)  { runExperiment(b, "ablation_multigroup") }
func BenchmarkScenariosTableI(b *testing.B)     { runExperiment(b, "scenarios") }

// BenchmarkFig13Fig14Layouts builds the three case-study layouts of
// Figures 13–14 (2-d TPC-H); rendering them is cmd/pawviz's job.
func BenchmarkFig13Fig14Layouts(b *testing.B) {
	data := GenerateTPCH(24_000, 42).Project(2).Normalize()
	hist := UniformWorkload(data.Domain(), 12, 43)
	delta := FractionOfDomain(data.Domain(), 0.01)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range []Method{MethodPAW, MethodQdTree, MethodKdTree} {
			if _, err := Build(data, hist, Options{Method: m, MinRows: 24, SampleRows: 2400, Delta: delta}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// Micro-benchmarks of the building blocks.

func benchBuild(b *testing.B, m Method) {
	data := GenerateTPCH(120_000, 1).Project(4).Normalize()
	hist := UniformWorkload(data.Domain(), 50, 2)
	delta := FractionOfDomain(data.Domain(), 0.01)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(data, hist, Options{
			Method: m, MinRows: 20, SampleRows: 12_000, Delta: delta, SkipRouting: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildPAW(b *testing.B)    { benchBuild(b, MethodPAW) }
func BenchmarkBuildQdTree(b *testing.B) { benchBuild(b, MethodQdTree) }
func BenchmarkBuildKdTree(b *testing.B) { benchBuild(b, MethodKdTree) }

func BenchmarkRouteFullDataset(b *testing.B) {
	data := GenerateTPCH(120_000, 3).Project(4).Normalize()
	hist := UniformWorkload(data.Domain(), 50, 4)
	l, err := Build(data, hist, Options{
		MinRows: 20, SampleRows: 12_000,
		Delta: FractionOfDomain(data.Domain(), 0.01), SkipRouting: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Route(data)
	}
}

func BenchmarkQueryCost(b *testing.B) {
	data := GenerateTPCH(60_000, 5).Project(4).Normalize()
	hist := UniformWorkload(data.Domain(), 50, 6)
	delta := FractionOfDomain(data.Domain(), 0.01)
	l, err := Build(data, hist, Options{MinRows: 10, SampleRows: 6_000, Delta: delta})
	if err != nil {
		b.Fatal(err)
	}
	fut := FutureWorkload(hist, delta, 1, 7).Boxes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range fut {
			l.QueryCost(q, nil)
		}
	}
}

func BenchmarkDeltaSimilarityMatching(b *testing.B) {
	for _, n := range []int{50, 200, 800} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			data := GenerateTPCH(1_000, 8).Project(4).Normalize()
			hist := UniformWorkload(data.Domain(), n, 9)
			fut := FutureWorkload(hist, 0.01, 1, 10)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ok, err := workload.AreSimilar(hist, fut, 0.0101)
				if err != nil || !ok {
					b.Fatalf("similarity broken: %v %v", ok, err)
				}
			}
		})
	}
}

func BenchmarkEstimateDelta(b *testing.B) {
	data := GenerateTPCH(1_000, 11).Project(4).Normalize()
	hist := UniformWorkload(data.Domain(), 100, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EstimateDelta(hist); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkColstoreScan(b *testing.B) {
	data := dataset.TPCHLike(100_000, 13)
	tab := colstore.FromDataset(data, nil, 4096)
	w := UniformWorkload(data.Domain(), 50, 14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range w.Boxes() {
			tab.Count(q)
		}
	}
}

func BenchmarkPreciseDescriptorInstall(b *testing.B) {
	data := GenerateOSM(50_000, 10, 15).Normalize()
	hist := SkewedWorkload(data.Domain(), 30, 16)
	l, err := Build(data, hist, Options{
		MinRows: 10, SampleRows: 5_000,
		Delta: FractionOfDomain(data.Domain(), 0.01),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := InstallPreciseDescriptors(l, data, 6); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStorageTunerSelect(b *testing.B) {
	data := GenerateOSM(50_000, 10, 17).Normalize()
	hist := SkewedWorkload(data.Domain(), 30, 18)
	delta := FractionOfDomain(data.Domain(), 0.01)
	l, err := Build(data, hist, Options{MinRows: 10, SampleRows: 5_000, Delta: delta})
	if err != nil {
		b.Fatal(err)
	}
	ext := hist.Extend(delta).Boxes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SelectExtraPartitions(l, data, ext, data.TotalBytes()/10)
	}
}
