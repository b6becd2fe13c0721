package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"
	"syscall"
	"testing"
	"time"

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
// tree's bytes are the version-1 bytes unchanged. The PAW digests were
// re-recorded again when core.Build began to record δ and QH on the layout:
// with both cleared they are the literals before. All of them were
// re-recorded when PAWL went to version 3, which appends the column names:
// with the names block stripped and the version word set back to 2 each
// encodes to the bytes before. All of them were re-recorded again when PAWL
// went to version 4, which appends the recipe (zero on the baselines, which
// are built by calling their builders directly): with it stripped and the
// version word set back to 3 each is the literal before. It also checks
// RouteRows against LocateLinear on every row.
func TestBenchmarkLayoutsGolden(t *testing.T) {
	want := map[string][3]benchLayoutGolden{ // paw, qd-tree, kd-tree
		"tpch-selective": {
			{59, "90d760578eeccd11", "e377a4b913e3e30a"},
			{93, "ae715d5a74f363c6", "507ba1d71945de3a"},
			{442, "341ca6af842a7cb8", "88ea330004d7d451"},
		},
		"tpch-wide-scan": {
			{317, "80332833618ed775", "6b4170520b70c842"},
			{314, "66476be5867c563b", "830d758e0bf96a29"},
			{442, "341ca6af842a7cb8", "88ea330004d7d451"},
		},
		"osm-hot-repeat": {
			{22, "3b66a42f08196ce1", "38817d6b8e3ce562"},
			{36, "bedda3dbf52d852d", "881815bd3edc3c95"},
			{510, "90fbc7aae448d9df", "baea3faa43765a96"},
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
// 2 M rows (a 200 000-row sample), and the Qd-tree and k-d builders on the
// tpch-selective shape: the layout-generation half of set-up
// (make bench-setup). cores is the process CPU time over the wall time.
func BenchmarkBuild(b *testing.B) {
	for _, sh := range benchShapes {
		// Generated on first use, so a -bench filter that skips the shape
		// skips its 2 M rows too.
		inputs := sync.OnceValue(func() benchInputs { return sh.inputs(2_000_000) })
		run := func(name string, build func(in benchInputs) *layout.Layout) {
			b.Run(name, func(b *testing.B) {
				in := inputs()
				b.ReportAllocs()
				b.ResetTimer()
				cpu := processCPU(b)
				for i := 0; i < b.N; i++ {
					buildSink = build(in)
				}
				b.ReportMetric(float64(processCPU(b)-cpu)/float64(b.Elapsed()), "cores")
			})
		}
		run(sh.name, func(in benchInputs) *layout.Layout {
			return Build(in.data, in.sample, in.domain, in.hist, in.params)
		})
		if sh.name != "tpch-selective" {
			continue
		}
		run(sh.name+"-qd-tree", func(in benchInputs) *layout.Layout {
			return qdtree.Build(in.data, in.sample, in.domain, in.hist.Boxes(), qdtree.Params{MinRows: in.params.MinRows})
		})
		run(sh.name+"-kd-tree", func(in benchInputs) *layout.Layout {
			return kdtree.Build(in.data, in.sample, in.domain, kdtree.Params{MinRows: in.params.MinRows})
		})
	}
}

// processCPU is the user and system CPU time the process has used so far.
func processCPU(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var buildSink *layout.Layout

// goldenOf digests l, routes data through it with RouteRows, checks every
// row's partition against LocateLinear, and checksums the FullRows.
func goldenOf(t *testing.T, l *layout.Layout, data *dataset.Dataset) benchLayoutGolden {
	t.Helper()
	digest, err := l.Digest()
	if err != nil {
		t.Fatal(err)
	}
	want := make([]layout.ID, data.NumRows())
	for i := range want {
		want[i] = -1
		if p := l.LocateLinear(data.Point(i)); p != nil {
			want[i] = p.ID
		}
	}
	for id, rows := range l.RouteRows(data, 2) {
		for k, i := range rows {
			if want[i] != layout.ID(id) || k > 0 && rows[k-1] >= i {
				t.Fatalf("row %d: RouteRows %d, LocateLinear %d", i, id, want[i])
			}
			want[i] = -2
		}
	}
	for i, id := range want {
		if id != -1 && id != -2 {
			t.Fatalf("row %d: RouteRows none, LocateLinear %d", i, id)
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
