package colstore

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"paw/internal/geom"
)

// BenchmarkKernel times the selection kernels on every encoding — narrow on
// runs and on raw chunks in ascending pieces; selectSpans and countSpans over
// the whole-group span and refine over half the positions on the rest — and
// the whole pipeline on run columns ahead of a raw one, in no order
// (runs-then-raw) and in the builder's (runs-then-sorted-raw), in two regimes
// (`make bench-kernels`):
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
		{"dict3", colDict, 0, 0.4999, func() { // 8 values: ranks at 3 bits
			for i := range vals {
				vals[i] = (float64(rng.Intn(8)) + 0.5) / 8
			}
		}},
		{"dict9", colDict, 0, 0.4999, func() { // some 430 of 500 values: ranks at 9 bits
			for i := range vals {
				vals[i] = (float64(rng.Intn(500)) + 0.5) / 500
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
	whole := []span{{0, groupRows}}
	out := make([]span, 0, groupRows)

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
			// kernel runs one case: op tests perOp positions of a group and
			// returns how many passed.
			kernel := func(name string, perOp int, op func(c *column) int) {
				b.Run(enc.name+"/"+name+"/"+regime.name, func(b *testing.B) {
					b.SetBytes(int64(perOp) * 8)
					matched := 0
					for i := 0; i < b.N; i++ {
						matched += op(&regime.groups[i%len(regime.groups)])
					}
					reportPass(b, matched, perOp)
				})
			}
			if enc.kind == colRLE {
				kernel("narrow", groupRows, func(c *column) int {
					kept, _ := c.narrow(enc.lo, enc.hi, whole, out[:0])
					return spanRows(kept)
				})
				continue
			}
			kernel("selectSpans", groupRows, func(c *column) int {
				kept, _ := c.selectSpans(enc.lo, enc.hi, whole, sel)
				return len(kept)
			})
			kernel("countSpans", groupRows, func(c *column) int {
				n, _ := c.countSpans(enc.lo, enc.hi, whole)
				return n
			})
			kernel("refine", len(half), func(c *column) int {
				kept, _ := c.refine(enc.lo, enc.hi, sel[:copy(sel, half)])
				return len(kept)
			})
		}
	}

	// raw/narrow-N: narrow over the whole-group span of a raw chunk in ascending
	// pieces of N values, both bounds inside every piece: 8, which narrow sweeps
	// a piece at a time (a chunk of such pieces is not searchable; this one is
	// made so by hand); minSearchRows, where the searches start and must be no
	// slower than raw/countSpans — what the constant rests on; the 89 of a run
	// tuple on tpch-wide-scan; half a group.
	for _, pieceRows := range []int{8, minSearchRows, 89, groupRows / 2} {
		groups := make([]column, freshGroups)
		for g := range groups {
			for i := range vals {
				vals[i] = rng.Float64()
			}
			for i := 0; i < groupRows; i += pieceRows {
				slices.Sort(vals[i:min(i+pieceRows, groupRows)])
			}
			groups[g] = encodeColumn(vals, &scratch)
			if (groups[g].pieces != nil) != (pieceRows >= minSearchRows) {
				b.Fatalf("raw group in pieces of %d: searchable %v", pieceRows, groups[g].pieces != nil)
			}
			groups[g].pieces = descents(vals)
		}
		for _, regime := range []struct {
			name   string
			groups []column
		}{{"replayed", groups[:1]}, {"fresh", groups}} {
			b.Run(fmt.Sprintf("raw/narrow-%d/%s", pieceRows, regime.name), func(b *testing.B) {
				b.SetBytes(groupRows * 8)
				matched := 0
				for i := 0; i < b.N; i++ {
					kept, _ := regime.groups[i%len(regime.groups)].narrow(0.25, 0.75, whole, out[:0])
					matched += spanRows(kept)
				}
				reportPass(b, matched, groupRows)
			})
		}
	}

	// runs-then-raw: three sorted low-cardinality columns (3, 12 and 96 runs a
	// group) ahead of an all-distinct one, every column an active predicate —
	// the shape of both TPC-H workloads of the end-to-end benchmark with the
	// raw column in no order, as rows that arrive sorted on the keys alone
	// have it. runs-then-sorted-raw is the builder's table: the raw column
	// ascending inside every run tuple, and searched. MB/s is over the raw
	// column's bytes; pass is the fraction of the group that matched.
	type row struct {
		keys  [3]int
		price float64
	}
	rows := make([]row, groupRows)
	q := geom.Box{Lo: geom.Point{0, 1, 2, 0.25}, Hi: geom.Point{1, 2, 5, 0.75}}
	sc := NewScanner()
	for _, shape := range []struct {
		name   string
		sorted bool
	}{{"runs-then-raw", false}, {"runs-then-sorted-raw", true}} {
		tab := &Table{names: []string{"a", "b", "c", "price"}, rows: freshGroups * groupRows}
		var enc groupEncoder
		for g := 0; g < freshGroups; g++ {
			for i := range rows {
				rows[i] = row{[3]int{rng.Intn(3), rng.Intn(4), rng.Intn(8)}, rng.Float64()}
			}
			slices.SortStableFunc(rows, func(x, y row) int {
				if c := slices.Compare(x.keys[:], y.keys[:]); c != 0 || !shape.sorted {
					return c
				}
				return cmp.Compare(x.price, y.price)
			})
			grp := enc.encode(4, groupRows, func(d int, dst []float64) {
				for i := range dst {
					if dst[i] = rows[i].price; d < 3 {
						dst[i] = float64(rows[i].keys[d])
					}
				}
			})
			for d, want := range []colKind{colRLE, colRLE, colRLE, colRaw} {
				if grp.cols[d].kind != want || (d == 3) && (grp.cols[d].pieces != nil) != shape.sorted {
					b.Fatalf("%s column %d encoded as %v, searchable %v", shape.name, d, grp.cols[d].kind, grp.cols[d].pieces != nil)
				}
			}
			tab.groups = append(tab.groups, grp)
		}
		for _, regime := range []struct {
			name   string
			groups int
		}{{"replayed", 1}, {"fresh", freshGroups}} {
			b.Run(shape.name+"/"+regime.name, func(b *testing.B) {
				b.SetBytes(groupRows * 8)
				var st ScanStats
				for i := 0; i < b.N; i++ {
					gi := i % regime.groups
					sc.scanGroups(tab, q, gi, gi+1, &st)
				}
				reportPass(b, st.Matched, groupRows)
			})
		}
	}
}

// reportPass reports the fraction of tested positions that passed, so a case
// that drifted away from p ≈ ½ shows in the output.
func reportPass(b *testing.B, matched, perOp int) {
	b.ReportMetric(float64(matched)/float64(b.N*perOp), "pass")
}
