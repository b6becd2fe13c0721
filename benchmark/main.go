// Command pawe2e is the repository's end-to-end benchmark (BENCHMARK.json):
// one invocation runs one workload for one seed against a real in-process
// cluster — three dist.Workers and one dist.Master on loopback TCP, driven by
// two closed-loop dist.MuxClient connections — and prints one JSON line of
// metrics. See README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"paw/internal/dist"
)

// Run shape (ISSUE 14). The timed part is rounds × (--seconds / rounds).
const (
	rounds    = 5
	warmup    = time.Second
	setupReps = 3
	// watchdog aborts a run that hangs, well inside the driver's 180 s cap.
	watchdog = 150 * time.Second
)

var logOut io.Writer = os.Stderr

func logf(format string, args ...any) { fmt.Fprintf(logOut, "pawe2e: "+format+"\n", args...) }

// config is one run.
type config struct {
	spec   spec
	seed   int64
	round  time.Duration
	warmup time.Duration
	// traced adds the traced pass and the layer probes and reports the
	// per-layer metrics instead of the end-to-end ones.
	traced bool
	// scale divides the row counts; 1 outside the smoke test.
	scale int
	// setups is how many times set-up runs; setup_s is their median.
	setups int
}

// result is the line the driver reads.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// report is everything one run measured: the operation counts and both
// metric sets, of which the result line carries one.
type report struct {
	correct           bool
	attempted, failed int64
	e2e, layers       metrics
}

func (r report) line(traced bool) result {
	res := result{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: r.e2e}
	if traced {
		res.Metrics = r.layers
	}
	return res
}

// phases logs each phase's wall time to stderr.
type phases struct{ last time.Time }

func (p *phases) done(name string) {
	now := time.Now()
	logf("phase %-10s %7.3fs", name, now.Sub(p.last).Seconds())
	p.last = now
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// run executes one workload for one seed. Without cfg.traced the per-layer
// set holds only the metrics the timed rounds and set-up give.
func run(cfg config) (report, error) {
	ctx := context.Background()
	ph := phases{last: time.Now()}
	e2e, layers := metrics{}, metrics{}

	in := generate(cfg.spec, cfg.seed, cfg.scale)
	in.buildOracle(cfg.seed)
	ph.done("generate")

	mcfg := dist.DefaultConfig()
	if cfg.spec.migrate {
		// README finding 3: a query that loses the cutover race cancels its
		// sibling RPCs, the master drops the shared worker link for each, and
		// every other query in flight on that link fails once. With the
		// breaker on, three such failures open it and the closed loop turns
		// into a fail-fast storm; with it off the master's own retry redials
		// and nothing reaches the clients.
		mcfg.Retry.BreakerThreshold = 0
	}
	// Set-up, several times: the median is steadier than one sample, and a
	// later change that moves work into set-up still shows.
	var c *cluster
	var setupTimes []float64
	for k := 0; k < cfg.setups; k++ {
		if c != nil {
			c.close()
			c = nil
			runtime.GC()
		}
		var err error
		if c, err = setUp(in, mcfg); err != nil {
			return report{}, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, c.total.Seconds())
	}
	defer c.close()
	e2e.set("setup_s", "s", median(setupTimes))
	layers.set("core.build_s", "s", c.buildTime.Seconds())
	layers.set("blockstore.materialize_s", "s", c.materializeTime.Seconds())
	layers.set("dist.cluster_start_s", "s", c.startTime.Seconds())
	layers.set("core.partitions", "count", float64(len(c.layout.Parts)))
	ph.done("set-up")

	if cfg.traced {
		baselines(in, c.layout, layers)
		ph.done("baselines")
	}
	in.data, in.sample = nil, nil
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e2e.set("heap_mb", "MB", float64(ms.HeapAlloc)/1e6)

	d := &driver{c: c, in: in, retryEpochRace: cfg.spec.migrate}
	var mg *migrator
	if cfg.spec.migrate {
		var err error
		if mg, err = newMigrator(c); err != nil {
			return report{}, err
		}
	}

	// Accounting pass: one client, every future statement once, cold, before
	// any migration. Its byte and row counts repeat exactly for a seed.
	scanned, rows := d.accountingPass(ctx)
	n := float64(len(in.stmts))
	e2e.set("scan_bytes_per_query", "bytes", float64(scanned)/n)
	layers.set("layout.lb_rows_per_query", "rows", float64(rows)/n)
	ph.done("accounting")

	load := newLoader(d)
	load.run(ctx, cfg.warmup, nil)
	load.reset()
	ph.done("warm-up")

	// Timed rounds. The metrics pool every answer of every round: on the
	// reference box whole rounds come out fast or slow (README, "Noise"), and
	// a median over five of them jumps between the two where the pooled
	// figures move smoothly.
	before, wbefore := c.reg.Snapshot(), workerSnapshot(c)
	retriedBefore := d.retried
	cpu0 := cpuTime()
	var wall time.Duration
	for r := 0; r < rounds; r++ {
		runtime.GC()
		mark := load.marks()
		w := load.run(ctx, cfg.round, mg)
		wall += w
		lat := load.sorted(mark)
		if len(lat) == 0 {
			return report{}, fmt.Errorf("round %d answered no query", r)
		}
		logf("round %d: %d answers, %.0f/s, p50 %.4f ms, p90 %.4f ms", r, len(lat),
			float64(len(lat))/w.Seconds(), millis(quantile(lat, 0.50)), millis(quantile(lat, 0.90)))
	}
	cpu := cpuTime() - cpu0
	after, wafter := c.reg.Snapshot(), workerSnapshot(c)
	lat := load.sorted(make([]int, numClients))
	queries := len(lat)
	e2e.set("query_p50_ms", "ms", millis(quantile(lat, 0.50)))
	e2e.set("query_p90_ms", "ms", millis(quantile(lat, 0.90)))
	e2e.set("throughput_qps", "1/s", float64(queries)/wall.Seconds())
	layers.set("client.query_p99_ms", "ms", millis(quantile(lat, 0.99)))
	layers.set("client.timed_answers", "count", float64(queries))
	layers.set("client.cpu_us_per_query", "us", micros(cpu)/float64(queries))
	layers.set("client.retried_queries", "count", float64(d.retried-retriedBefore))
	delta := func(name string) float64 { return float64(after.Counter(name) - before.Counter(name)) }
	ratio := func(hits, misses float64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return hits / (hits + misses)
	}
	layers.set("serve.plan_cache_hit_ratio", "ratio", ratio(delta(dist.MetricPlanCacheHits), delta(dist.MetricPlanCacheMisses)))
	layers.set("serve.result_cache_hit_ratio", "ratio", ratio(delta(dist.MetricResultCacheHits), delta(dist.MetricResultCacheMisses)))
	layers.set("dist.rpc_calls_per_query", "count", float64(wafter[dist.MetricWorkerScans]-wbefore[dist.MetricWorkerScans])/float64(queries))
	layers.set("dist.retries", "count", delta(dist.MetricRetries))
	layers.set("dist.shared_scans", "count", float64(wafter[dist.MetricWorkerSharedScans]-wbefore[dist.MetricWorkerSharedScans]))
	layers.set("dist.migrations_done", "count", delta(dist.MetricMigrations))
	layers.set("dist.migrated_bytes", "bytes", delta(dist.MetricMigratedBytes))
	layers.set("dist.cache_entries_swept", "count", delta(dist.MetricCacheSwept))
	layers.set("dist.cache_entries_remapped", "count", delta(dist.MetricCacheRemapped))
	migP50 := 0.0
	if mg != nil {
		d.attempted += int64(len(mg.durations) + mg.failed)
		d.failed += int64(mg.failed)
		if len(mg.durations) > 0 {
			ds := make([]float64, len(mg.durations))
			for i, dur := range mg.durations {
				ds[i] = millis(dur)
			}
			migP50 = median(ds)
		}
	}
	layers.set("dist.migration_p50_ms", "ms", migP50)
	layers.set("runtime.gomaxprocs", "count", float64(runtime.GOMAXPROCS(0)))
	layers.set("runtime.num_cpu", "count", float64(runtime.NumCPU()))
	ph.done("rounds")

	if cfg.traced {
		d.tracedPass(ctx, layers)
		if err := d.probeLayers(layers); err != nil {
			return report{}, fmt.Errorf("layer probes: %w", err)
		}
		ph.done("traced")
	}

	return report{correct: d.mismatches == 0, attempted: d.attempted, failed: d.failed, e2e: e2e, layers: layers}, nil
}

// workerSnapshot sums every counter over the workers' registries.
func workerSnapshot(c *cluster) map[string]int64 {
	total := make(map[string]int64)
	for _, reg := range c.wregs {
		for name, v := range reg.Snapshot().Counters {
			total[name] += v
		}
	}
	return total
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed         = flag.Int64("seed", 1, "seed every input is generated from")
		seconds      = flag.Float64("seconds", 10, "timed seconds, split into 5 rounds")
		traceFlag    = flag.Int("trace", 0, "0: end-to-end metrics; 1: add the traced pass and report per-layer metrics")
		selfcheck    = flag.Int("selfcheck", 0, "A/A check: run every workload N times in two interleaved sets and compare them")
	)
	flag.Parse()
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))
	if *selfcheck > 0 {
		os.Exit(selfCheck(*selfcheck, *seconds))
	}
	sp, ok := specByName(*workloadName)
	if !ok {
		fmt.Fprintf(os.Stderr, "pawe2e: unknown workload %q; have:", *workloadName)
		for _, s := range specs {
			fmt.Fprintf(os.Stderr, " %s", s.name)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}
	time.AfterFunc(watchdog, func() {
		logf("watchdog: run passed %s, aborting", watchdog)
		os.Exit(3)
	})
	cfg := config{
		spec:   sp,
		seed:   *seed,
		round:  time.Duration(*seconds * float64(time.Second) / rounds),
		warmup: warmup,
		traced: *traceFlag == 1,
		scale:  1,
		setups: setupReps,
	}
	if cfg.traced {
		cfg.setups = 1 // setup_s is not reported; spend the time on the traced pass
	}
	start := time.Now()
	rep, err := run(cfg)
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	logf("run %s seed %d: %.1fs wall, %d attempted, %d failed", sp.name, *seed, time.Since(start).Seconds(), rep.attempted, rep.failed)
	line, err := json.Marshal(rep.line(cfg.traced))
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.correct {
		os.Exit(1)
	}
}
