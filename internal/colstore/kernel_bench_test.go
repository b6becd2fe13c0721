package colstore

import (
	"math/rand"
	"testing"
)

// BenchmarkKernel times the two selection kernels on every encoding in two
// regimes (`make bench-kernels`):
//
//   - replayed: one row group, one predicate, over and over — the branch
//     predictor memorises the group, which is what a microbenchmark that
//     replays one box measures;
//   - fresh: 256 row groups of independent random values (8 MiB of float64s
//     before encoding) visited in turn, every row passing with p ≈ ½ — no
//     outcome is seen twice inside the predictor's memory, which is what a
//     cluster scanning boundary groups of many partitions sees.
//
// A kernel with a data-dependent branch reads ~4× apart on the two; the
// branch-free kernels read within ~1.3×. Nothing is asserted on time. MB/s is
// over the group's logical float64 bytes, so encodings compare directly.
func BenchmarkKernel(b *testing.B) {
	const groupRows, freshGroups = DefaultGroupRows, 256
	rng := rand.New(rand.NewSource(18))
	var scratch encodeScratch
	vals := make([]float64, groupRows)

	// Every generator draws values whose median is 0.5 of [0, 1) scaled to the
	// encoding's domain; the predicate keeps the lower half.
	encodings := []struct {
		name   string
		kind   colKind
		lo, hi float64
		gen    func()
	}{
		{"raw", colRaw, 0, 0.5, func() {
			for i := range vals {
				vals[i] = rng.Float64()
			}
		}},
		{"dict8", colDict, 0, 0.4999, func() {
			for i := range vals {
				vals[i] = (float64(rng.Intn(200)) + 0.5) / 200
			}
		}},
		{"dict16", colDict, 0, 0.4999, func() {
			for i := range vals {
				vals[i] = (float64(rng.Intn(1000)) + 0.5) / 1000
			}
		}},
		{"rle", colRLE, 0, 0.5, func() {
			for i := 0; i < len(vals); {
				v := rng.Float64()
				// Runs of 32–159 rows: the builder's RLE columns average ≈ 95
				// at the benchmark's partition size. RLE works a run at a
				// time, so what it pays per run shrinks with the run.
				for end := min(i+32+rng.Intn(128), len(vals)); i < end; i++ {
					vals[i] = v
				}
			}
		}},
		{"for", colFOR, 0, 4095, func() {
			for i := range vals {
				vals[i] = float64(rng.Intn(1 << 13))
			}
		}},
	}

	// The refining input: a random half of the group's positions, ascending.
	half := make([]int32, 0, groupRows)
	for i := 0; i < groupRows; i++ {
		if rng.Intn(2) == 0 {
			half = append(half, int32(i))
		}
	}
	sel := make([]int32, groupRows)

	for _, enc := range encodings {
		groups := make([]column, freshGroups)
		for g := range groups {
			enc.gen()
			groups[g] = encodeColumn(vals, &scratch)
			if groups[g].kind != enc.kind {
				b.Fatalf("%s group encoded as %v", enc.name, groups[g].kind)
			}
		}
		for _, regime := range []struct {
			name   string
			groups []column
		}{{"replayed", groups[:1]}, {"fresh", groups}} {
			b.Run(enc.name+"/filterAll/"+regime.name, func(b *testing.B) {
				b.SetBytes(groupRows * 8)
				matched := 0
				for i := 0; i < b.N; i++ {
					out, _ := regime.groups[i%len(regime.groups)].filterAll(enc.lo, enc.hi, sel)
					matched += len(out)
				}
				reportPass(b, matched, groupRows)
			})
			b.Run(enc.name+"/refine/"+regime.name, func(b *testing.B) {
				b.SetBytes(int64(len(half)) * 8)
				matched := 0
				for i := 0; i < b.N; i++ {
					in := sel[:copy(sel, half)]
					out, _ := regime.groups[i%len(regime.groups)].refine(enc.lo, enc.hi, in)
					matched += len(out)
				}
				reportPass(b, matched, len(half))
			})
		}
	}
}

// reportPass reports the fraction of tested positions that passed, so a case
// that drifted away from p ≈ ½ shows in the output.
func reportPass(b *testing.B, matched, perOp int) {
	b.ReportMetric(float64(matched)/float64(b.N*perOp), "pass")
}
