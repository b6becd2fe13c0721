package bench

import (
	"runtime"
	"slices"
	"sort"
	"testing"

	"paw/internal/colstore"
	"paw/internal/geom"
	"paw/internal/parbuild"
	"paw/internal/workload"
)

// ScanResult is one (family, mode, selectivity) cell of the columnar-scan
// benchmark. Throughputs are effective rates over the table's raw logical
// bytes (rows × dims × 8): a scan that skips row groups or columns is
// credited for the data it answered about, not just the bytes it decoded —
// that is what makes skipping show up as throughput.
type ScanResult struct {
	// Family is the query shape: "clustered" constrains only the sort
	// dimension (the others are SMA-covered), "multidim" adds predicates on
	// the unsorted dictionary columns so the refinement kernels run. Both
	// replay one box on a table sorted on its predicate column, so every
	// decoded group's outcomes are ones the branch predictor has seen.
	// "boundary" is what a cluster sees instead: the multidim box on a table
	// in colstore.Builder's clustered order (the production order), a
	// different δ-perturbed copy of the box on every op, so the decoded groups
	// are the ones a query edge cuts and no (group, box) pair recurs inside
	// the predictor's memory. Its figures are means over the boxes.
	Family string `json:"family"`
	// Mode is the execution path: "naive" (row-at-a-time over fully decoded
	// groups), "vectorized" (selection-vector count), "parallel" (vectorized
	// count fanned over row groups).
	Mode string `json:"mode"`
	// Workers is the pool width for the parallel mode (0 otherwise).
	Workers int `json:"workers,omitempty"`
	// TargetSelectivity is the requested matching fraction on the sort
	// dimension; Matched is what the query actually selected.
	TargetSelectivity float64 `json:"target_selectivity"`
	Matched           int     `json:"matched_rows"`
	NsPerOp           int64   `json:"ns_per_op"`
	RowsPerSec        float64 `json:"rows_per_sec"`
	MBPerSec          float64 `json:"mb_per_sec"`
	// DecodedMBPerSec is BytesRead over the op's time: the rate the end-to-end
	// benchmark reports as colstore.scan_mb_per_s. MBPerSec credits skipped
	// bytes; this does not.
	DecodedMBPerSec float64 `json:"decoded_mb_per_sec"`
	AllocsPerOp     float64 `json:"allocs_per_op"`
	BytesRead       int64   `json:"bytes_read"`
	BytesSkipped    int64   `json:"bytes_skipped"`
	GroupsRead      int     `json:"groups_read"`
	GroupsSkipped   int     `json:"groups_skipped"`
	// SpeedupVsNaive is this cell's throughput over the naive mode at the
	// same family and selectivity (the encoded-vs-raw kernel payoff).
	SpeedupVsNaive float64 `json:"speedup_vs_naive,omitempty"`
}

// ScanReport is the machine-readable scan-kernel snapshot written to
// BENCH_scan.json.
type ScanReport struct {
	Meta       Meta `json:"meta"`
	GOMAXPROCS int  `json:"gomaxprocs"`
	NumCPU     int  `json:"num_cpu"`
	Rows       int  `json:"rows"`
	Dims       int  `json:"dims"`
	RowGroups  int  `json:"row_groups"`
	GroupRows  int  `json:"group_rows"`
	// RawBytes is rows × dims × 8 (the float64 payload a raw store holds);
	// EncodedBytes is the same data under the chosen per-column encodings.
	RawBytes         int64          `json:"raw_bytes"`
	EncodedBytes     int64          `json:"encoded_bytes"`
	CompressionRatio float64        `json:"compression_ratio"`
	Encodings        map[string]int `json:"encodings"`
	// RawWidthBits is the mean width, in bits, raw chunks pack a value at.
	RawWidthBits float64      `json:"raw_width_bits"`
	Results      []ScanResult `json:"results"`
}

// scanSelectivities are the per-family target fractions on the sorted
// dimension; the ≤1% points are where row-group skipping dominates.
var scanSelectivities = map[string][]float64{
	"clustered": {0.5, 0.1, 0.01, 0.001},
	"multidim":  {0.1, 0.01},
	"boundary":  {0.5, 0.1},
}

// boundaryBoxes is how many δ-perturbed copies of its box the boundary family
// cycles through: at ~10 decoded groups of 4096 rows a box, a cycle is ~10⁷
// predicate outcomes, far past any branch predictor's history.
const boundaryBoxes = 256

// scanSortDim is the dimension the benchmark table is clustered on. The
// TPC-H stand-in's dim 1 (extendedprice) is continuous, so sorting by it
// gives row groups with tight disjoint envelopes and arbitrary selectivity
// granularity, while the discrete dims (quantity, discount, tax) stay
// unsorted and dictionary-encode.
const scanSortDim = 1

// ScanBench measures the vectorized columnar scan kernels against the
// retained naive reference on a dim-sorted TPC-H stand-in: per-selectivity
// serial and parallel count throughput, byte skipping and allocation
// pressure. All modes return identical match counts (the differential suites
// prove it); only time, bytes and allocations differ.
func ScanBench(cfg Config) ScanReport {
	data := cfg.tpch()
	n := data.NumRows()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	all := slices.Clone(order) // for the boundary family's builder, which reorders it
	sort.Slice(order, func(a, b int) bool {
		return data.At(order[a], scanSortDim) < data.At(order[b], scanSortDim)
	})
	tab := colstore.FromDataset(data, order, colstore.DefaultGroupRows)
	sorted := make([]float64, n)
	for i, r := range order {
		sorted[i] = data.At(r, scanSortDim)
	}
	dom := data.Domain()

	rep := ScanReport{
		Meta:         Meta{Schema: ScanSchema},
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		Rows:         n,
		Dims:         tab.Dims(),
		RowGroups:    tab.NumGroups(),
		GroupRows:    colstore.DefaultGroupRows,
		RawBytes:     int64(n) * int64(tab.Dims()) * 8,
		EncodedBytes: tab.EncodedBytes(),
		Encodings:    tab.EncodingCounts(),
	}
	if rep.EncodedBytes > 0 {
		rep.CompressionRatio = float64(rep.RawBytes) / float64(rep.EncodedBytes)
	}
	if raw, bits, _, _, _, _ := tab.SearchCensus(nil); raw > 0 {
		rep.RawWidthBits = float64(bits) / float64(raw)
	}

	// query builds a box matching ~sel of the rows on the sort dimension,
	// anchored at the 30th percentile. The multidim family additionally trims
	// the unsorted dimensions to 92% of their domain, turning them into
	// active (refined) predicate columns instead of covered ones.
	query := func(family string, sel float64) geom.Box {
		lo := int(0.30 * float64(n))
		hi := lo + int(sel*float64(n)) - 1
		if hi >= n {
			hi = n - 1
		}
		q := geom.Box{Lo: dom.Lo.Clone(), Hi: dom.Hi.Clone()}
		q.Lo[scanSortDim] = sorted[lo]
		q.Hi[scanSortDim] = sorted[hi]
		if family == "multidim" {
			for d := 0; d < tab.Dims(); d++ {
				if d == scanSortDim {
					continue
				}
				span := dom.Hi[d] - dom.Lo[d]
				q.Hi[d] = dom.Lo[d] + 0.92*span
			}
		}
		return q
	}

	sc := colstore.NewScanner()
	pool := parbuild.New(0)
	var sp colstore.ScannerPool

	measure := func(family, mode string, workers int, sel float64, st colstore.ScanStats, op func()) ScanResult {
		op() // warm up scratch so steady-state allocations are measured
		res := testing.Benchmark(func(tb *testing.B) {
			tb.ReportAllocs()
			for i := 0; i < tb.N; i++ {
				op()
			}
		})
		out := ScanResult{
			Family:            family,
			Mode:              mode,
			Workers:           workers,
			TargetSelectivity: sel,
			Matched:           st.Matched,
			NsPerOp:           res.NsPerOp(),
			AllocsPerOp:       float64(res.AllocsPerOp()),
			BytesRead:         st.BytesRead,
			BytesSkipped:      st.BytesSkipped,
			GroupsRead:        st.GroupsRead,
			GroupsSkipped:     st.GroupsSkipped,
		}
		if res.NsPerOp() > 0 {
			perSec := 1e9 / float64(res.NsPerOp())
			out.RowsPerSec = float64(n) * perSec
			out.MBPerSec = float64(rep.RawBytes) / 1e6 * perSec
			out.DecodedMBPerSec = float64(st.BytesRead) / 1e6 * perSec
		}
		return out
	}

	for _, family := range []string{"clustered", "multidim"} {
		for _, sel := range scanSelectivities[family] {
			q := query(family, sel)
			naive := measure(family, "naive", 0, sel, tab.CountNaive(q), func() {
				tab.CountNaive(q)
			})
			rep.Results = append(rep.Results, naive)

			vec := measure(family, "vectorized", 0, sel, sc.Count(tab, q), func() {
				sc.Count(tab, q)
			})
			vec.SpeedupVsNaive = speedup(naive.NsPerOp, vec.NsPerOp)
			rep.Results = append(rep.Results, vec)

			par := measure(family, "parallel", pool.Workers(), sel, tab.CountParallel(q, pool, &sp, sc), func() {
				tab.CountParallel(q, pool, &sp, sc)
			})
			par.SpeedupVsNaive = speedup(naive.NsPerOp, par.NsPerOp)
			rep.Results = append(rep.Results, par)
		}
	}

	// The boundary family: same rows, the builder's order, a fresh box per op.
	btab := colstore.NewBuilder(data, data.Domain(), colstore.DefaultGroupRows).Build(all, nil)
	for _, sel := range scanSelectivities["boundary"] {
		base := workload.Workload{{Box: query("multidim", sel)}}
		boxes := workload.Future(base, cfg.DeltaFrac, boundaryBoxes, cfg.Seed).Boxes()
		mean := func(count func(geom.Box) colstore.ScanStats) colstore.ScanStats {
			var st colstore.ScanStats
			for _, q := range boxes {
				st.Add(count(q))
			}
			st.Matched /= len(boxes)
			st.BytesRead /= int64(len(boxes))
			st.BytesSkipped /= int64(len(boxes))
			st.GroupsRead /= len(boxes)
			st.GroupsSkipped /= len(boxes)
			return st
		}
		next := 0
		cycle := func(count func(geom.Box) colstore.ScanStats) func() {
			return func() {
				count(boxes[next%len(boxes)])
				next++
			}
		}
		naive := measure("boundary", "naive", 0, sel, mean(btab.CountNaive), cycle(btab.CountNaive))
		rep.Results = append(rep.Results, naive)
		count := func(q geom.Box) colstore.ScanStats { return sc.Count(btab, q) }
		vec := measure("boundary", "vectorized", 0, sel, mean(count), cycle(count))
		vec.SpeedupVsNaive = speedup(naive.NsPerOp, vec.NsPerOp)
		rep.Results = append(rep.Results, vec)
	}

	return rep
}
