package main

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"paw/internal/dataset"
	"paw/internal/geom"
	"paw/internal/workload"
)

// Constants every workload shares (ISSUE 14): δ is 1 % of the normalized
// domain, layouts are built on a 10 % sample with bmin = sample/600, and the
// cluster is three workers behind one master. Eight closed-loop clients keep
// both cores of the reference box busy; with two, throughput on
// osm-hot-repeat was bimodal (66k or 113k/s for one seed), decided by whether
// the idle threads were parked when a reply arrived.
const (
	deltaFrac    = 0.01
	sampleFrac   = 0.10
	blocksTarget = 600
	groupRows    = 2048
	numWorkers   = 3
	numClients   = 8
	oracleSample = 100
)

// spec is one benchmark workload: which data, which historical workload the
// layout is built for, and how many δ-similar future statements are replayed.
type spec struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json repeats it).
	why  string
	data func(rows int, seed int64) *dataset.Dataset
	rows int
	// histQueries, gamma: the skewed historical workload (Table III's #Q, γ).
	histQueries int
	gamma       float64
	// ratio future statements are derived from each historical query; the
	// accounting pass sends them all.
	ratio int
	// replay is how many of them the clients cycle through (0: all).
	replay int
	// migrate runs placement changes beside the timed reads.
	migrate bool
}

func tpch(rows int, seed int64) *dataset.Dataset {
	return dataset.TPCHLike(rows, seed).Project(4).Normalize()
}

func osm(rows int, seed int64) *dataset.Dataset {
	return dataset.OSMLike(rows, 12, seed).Normalize()
}

// specs lists the workloads in the order BENCHMARK.json names them. The
// statement counts are chosen against the master's caches (plan 1024, result
// 256) per client: each of the eight clients cycles through its own share of
// the replayed statements, so a cache is missed every time only if one share
// alone overflows it. tpch-selective gives each client 1100 statements (over
// both caches), tpch-wide-scan 300 (over the result cache; the 2400 together
// overflow the plan cache as well), osm-hot-repeat 16 (all 128 fit).
var specs = []spec{
	{
		name: "tpch-selective",
		why:  "8800 distinct narrow statements miss both caches; parse, route, wire and RPC dominate, kernels do little",
		data: tpch, rows: 2_000_000, histQueries: 200, gamma: 0.3, ratio: 44,
	},
	{
		name: "tpch-wide-scan",
		why:  "2400 wide statements fan out to all workers; colstore kernels and scatter/merge dominate",
		data: tpch, rows: 2_000_000, histQueries: 100, gamma: 0.9, ratio: 24,
	},
	{
		name: "osm-hot-repeat",
		why:  "128 replayed statements fit the result cache; only client hop, frame codec and cache lookup run",
		data: osm, rows: 2_000_000, histQueries: 64, gamma: 0.1, ratio: 64, replay: 128,
	},
	{
		name: "tpch-migrate-under-load",
		why:  "tpch-selective reads beside a placement change every 250 ms; installs, cutover, sweep, drain and retire",
		data: tpch, rows: 2_000_000, histQueries: 200, gamma: 0.3, ratio: 44, migrate: true,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// inputs is everything one run feeds the program, all derived from the seed.
type inputs struct {
	// data is the raw dataset; the run drops it once set-up and the oracle
	// are done, so the measured heap is the program's, not the generator's.
	data   *dataset.Dataset
	domain geom.Box
	names  []string
	// sample is the layout-construction sample (row indices into data).
	sample []int
	hist   workload.Workload
	// delta is δ in the domain's units.
	delta float64
	// future are the δ-similar range queries and stmts their SQL text; the
	// clients replay the first replay of them.
	future []geom.Box
	stmts  []string
	replay int
	// want is the oracle: the exact row count of the sampled statements,
	// -1 for the statements that are not sampled.
	want []int
}

// identitySeed generates what makes a workload the workload it is: the
// database rows, the historical queries and the sample the layout is built
// from. Drawing those from the run seed too would make every seed a different
// workload — ten seeds of tpch-selective then differ twofold in bytes scanned
// per query, and no bound could tell a regression from a reseed. The run seed
// draws what the paper treats as varying: the δ-similar future statements,
// their order, and the oracle sample.
const identitySeed = 20220501

// subSeed derives independent generator seeds from a seed.
func subSeed(seed int64, k int64) int64 { return seed*7919 + k }

// generate builds the inputs of one run. scale divides the row count (1
// outside the smoke test).
func generate(sp spec, seed int64, scale int) *inputs {
	rows := sp.rows / scale
	data := sp.data(rows, subSeed(identitySeed, 0))
	in := &inputs{data: data, domain: data.Domain(), names: data.Names()}
	in.sample = data.Sample(int(float64(rows)*sampleFrac), subSeed(identitySeed, 1))
	in.hist = workload.Skewed(in.domain, workload.GenParams{
		NumQueries:   sp.histQueries,
		MaxRangeFrac: sp.gamma,
		Centers:      10,
		SigmaFrac:    0.10,
		Seed:         subSeed(identitySeed, 2),
	})
	in.delta = deltaFrac * (in.domain.Hi[0] - in.domain.Lo[0])
	fut := workload.Future(in.hist, in.delta, sp.ratio, subSeed(seed, 3)).Clip(in.domain)
	in.future = fut.Boxes()
	// Future groups the statements by the historical query they perturb;
	// replay them in a seed-drawn order so neighbours are unrelated and the
	// two clients' halves are alike.
	rand.New(rand.NewSource(subSeed(seed, 5))).Shuffle(len(in.future), func(i, j int) {
		in.future[i], in.future[j] = in.future[j], in.future[i]
	})
	in.replay = len(in.future)
	if sp.replay > 0 {
		in.replay = min(sp.replay, in.replay)
	}
	in.stmts = make([]string, len(in.future))
	for i, b := range in.future {
		in.stmts[i] = boxSQL(in.names, b)
	}
	return in
}

// minRows is bmin in sample rows, for every layout built on the sample.
func (in *inputs) minRows() int { return len(in.sample) / blocksTarget }

// boxSQL renders a range box as SQL over the dataset's columns (%v prints
// the shortest round-tripping float, so the parsed box is exact).
func boxSQL(names []string, b geom.Box) string {
	var sb strings.Builder
	sb.WriteString("SELECT * FROM t WHERE ")
	for d, n := range names {
		if d > 0 {
			sb.WriteString(" AND ")
		}
		fmt.Fprintf(&sb, "%s >= %v AND %s <= %v", n, b.Lo[d], n, b.Hi[d])
	}
	return sb.String()
}

// buildOracle counts, on the raw dataset, the exact answer of a seed-chosen
// sample of the replayed statements. Every answer to a sampled statement, in
// every pass, is checked against it.
func (in *inputs) buildOracle(seed int64) {
	in.want = make([]int, len(in.future))
	for i := range in.want {
		in.want[i] = -1
	}
	picks := rand.New(rand.NewSource(subSeed(seed, 4))).Perm(in.replay)
	if len(picks) > oracleSample {
		picks = picks[:oracleSample]
	}
	// Full scans of the dataset: split them over two goroutines, which is
	// what the reference box has cores for.
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := g; k < len(picks); k += 2 {
				i := picks[k]
				in.want[i] = in.data.CountInBox(in.future[i], nil)
			}
		}(g)
	}
	wg.Wait()
}
