package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"paw/internal/dataset"
	"paw/internal/geom"
	"paw/internal/kdtree"
	"paw/internal/layout"
	"paw/internal/qdtree"
	"paw/internal/workload"
)

// benchShape is one layout of the end-to-end benchmark (benchmark/workloads.go,
// generate and setUp; tpch-selective and tpch-migrate-under-load share one):
// the same generators, seeds, 10 % sample, δ of 1 % and bmin = sample/600.
type benchShape struct {
	name        string
	tpch        bool
	histQueries int
	gamma       float64
}

var benchShapes = []benchShape{
	{"tpch-selective", true, 200, 0.3},
	{"tpch-wide-scan", true, 100, 0.9},
	{"osm-hot-repeat", false, 64, 0.1},
}

// benchInputs is what a benchShape builds from at the given row count.
type benchInputs struct {
	data   *dataset.Dataset
	domain geom.Box
	sample []int
	hist   workload.Workload
	params Params
}

func (sh benchShape) inputs(rows int) benchInputs {
	const identitySeed = 20220501
	subSeed := func(seed, k int64) int64 { return seed*7919 + k }
	var data *dataset.Dataset
	if sh.tpch {
		data = dataset.TPCHLike(rows, subSeed(identitySeed, 0)).Project(4).Normalize()
	} else {
		data = dataset.OSMLike(rows, 12, subSeed(identitySeed, 0)).Normalize()
	}
	in := benchInputs{data: data, domain: data.Domain(), sample: data.Sample(rows/10, subSeed(identitySeed, 1))}
	in.hist = workload.Skewed(in.domain, workload.GenParams{
		NumQueries: sh.histQueries, MaxRangeFrac: sh.gamma, Centers: 10, SigmaFrac: 0.10,
		Seed: subSeed(identitySeed, 2),
	})
	in.params = Params{MinRows: len(in.sample) / 600, Delta: 0.01 * (in.domain.Hi[0] - in.domain.Lo[0])}
	return in
}

// benchLayoutGolden is what one layout pins: its partition count,
// layout.Digest of the sealed, unrouted tree, and the SHA-256 prefix of every
// partition's FullRows once the shape's full dataset is routed, in partition
// order.
type benchLayoutGolden struct {
	parts            int
	digest, fullRows string
}

// TestBenchmarkLayoutsGolden builds every benchShape's PAW layout and the
// Qd-tree and k-d baselines it is costed against, at a tenth of the
// benchmark's rows, and pins each to literals recorded on the sort-based
// construction and the full-Contains routing walk. Ranking by selection and
// bucketing, and routing by derived per-split checks, must reproduce them bit
// for bit. The digests were re-recorded when PAWL went to version 2; each
// tree's bytes are the version-1 bytes unchanged. It also checks RouteAssign
// against LocateLinear on every row.
func TestBenchmarkLayoutsGolden(t *testing.T) {
	want := map[string][3]benchLayoutGolden{ // paw, qd-tree, kd-tree
		"tpch-selective": {
			{59, "9d8960104885db09", "e377a4b913e3e30a"},
			{93, "42ff2e088b565be4", "507ba1d71945de3a"},
			{442, "8ad7af6ec9996c6e", "88ea330004d7d451"},
		},
		"tpch-wide-scan": {
			{317, "5185d83db61fad32", "6b4170520b70c842"},
			{314, "4082f5e434e5ad68", "830d758e0bf96a29"},
			{442, "8ad7af6ec9996c6e", "88ea330004d7d451"},
		},
		"osm-hot-repeat": {
			{22, "ff14a2e5716a28c7", "38817d6b8e3ce562"},
			{36, "1725d47d8f13de94", "881815bd3edc3c95"},
			{510, "34406aa5a3b41da6", "baea3faa43765a96"},
		},
	}
	for _, sh := range benchShapes {
		t.Run(sh.name, func(t *testing.T) {
			in := sh.inputs(200_000)
			minRows := in.params.MinRows
			for i, l := range []*layout.Layout{
				Build(in.data, in.sample, in.domain, in.hist, in.params),
				qdtree.Build(in.data, in.sample, in.domain, in.hist.Boxes(), qdtree.Params{MinRows: minRows}),
				kdtree.Build(in.data, in.sample, in.domain, kdtree.Params{MinRows: minRows}),
			} {
				if got := goldenOf(t, l, in.data); got != want[sh.name][i] {
					t.Errorf("%s: got %+v, want %+v", l.Method, got, want[sh.name][i])
				}
			}
		})
	}
}

// BenchmarkBuild times core.Build on each benchShape at the benchmark's
// 2 M rows (a 200 000-row sample): the layout-generation half of set-up
// (make bench-setup).
func BenchmarkBuild(b *testing.B) {
	for _, sh := range benchShapes {
		in := sh.inputs(2_000_000)
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buildSink = Build(in.data, in.sample, in.domain, in.hist, in.params)
			}
		})
	}
}

var buildSink *layout.Layout

// goldenOf digests l, routes data through it with RouteAssign, checks every
// row's partition against LocateLinear, and checksums the FullRows.
func goldenOf(t *testing.T, l *layout.Layout, data *dataset.Dataset) benchLayoutGolden {
	t.Helper()
	digest, err := l.Digest()
	if err != nil {
		t.Fatal(err)
	}
	assign := l.RouteAssign(data, 2)
	pt := make(geom.Point, data.Dims())
	for i, id := range assign {
		for d := range pt {
			pt[d] = data.At(i, d)
		}
		want := int32(-1)
		if p := l.LocateLinear(pt); p != nil {
			want = int32(p.ID)
		}
		if id != want {
			t.Fatalf("row %d: RouteAssign %d, LocateLinear %d", i, id, want)
		}
	}
	h := sha256.New()
	for _, p := range l.Parts {
		binary.Write(h, binary.LittleEndian, p.FullRows)
	}
	return benchLayoutGolden{
		parts:    len(l.Parts),
		digest:   digest[:16],
		fullRows: hex.EncodeToString(h.Sum(nil))[:16],
	}
}
