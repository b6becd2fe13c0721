# Tier-1 verification plus the concurrency and performance gates added with
# the parallel construction substrate (internal/parbuild), the sealed
# routing index (internal/rtree + layout batch costing), and the
# paper-invariant oracle suite (internal/invariant + internal/sim).

GO ?= go

.PHONY: check build vet test race chaos fuzz loc loc-check bench-smoke bench-kernels bench-request-path bench-setup bench-construction bench-routing bench-scan bench-drift bench-rebalance obs-demo trace-demo

# check is the full tier-1 gate: build, vet, tests, and the race detector
# over every package that runs concurrent construction or routing code.
check: build vet test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# race runs the concurrent builders (PAW, Qd-tree, k-d tree, parbuild),
# the concurrent routing/costing paths (layout batch sweeps, router, tuner),
# the benchmark harness, the invariant/simulation suites, the online
# reorganization path (drift monitor + migration),
# the elastic membership substrate (failure detector, ring placement,
# rebalance planner), the tracing substrate (spans assemble across scatter
# goroutines), the SQL rewriter and pawmaster's boot check (invariant.CheckData
# fans the dataset out) under the race detector in short mode. Any new fan-out
# point must pass this before merging. The store's materialisation fan-out
# (blockstore.Materialize over colstore.Builder) must produce byte-identical
# tables — and so identical data envelopes — at any width, so those two
# packages run serial and parallel (-cpu 1,2): their determinism tests compare
# the encodings, and the order tests (TestClusterTilesAndRuns,
# TestClusterIsPureFunctionOfRowSet, TestBuildAllMatchesBuild: tiles, run keys,
# the tail key of every tile) run at both widths with them.
race:
	$(GO) test -race -short ./internal/core/... ./internal/qdtree/... ./internal/kdtree/... ./internal/parbuild/... ./internal/layout/... ./internal/router/... ./internal/tuner/... ./internal/bench/... ./internal/invariant/... ./internal/sim/... ./internal/obs/... ./internal/dist/... ./internal/faultnet/... ./internal/serve/... ./internal/drift/... ./internal/trace/... ./internal/membership/... ./internal/sqlrew/... ./cmd/pawmaster/...
	$(GO) test -race -short -cpu 1,2 ./internal/colstore/... ./internal/blockstore/...

# chaos runs the deterministic fault-injection suite (DESIGN.md §10) under
# the race detector: every TestChaos* scenario drives the distributed path
# through faultnet scripts on a fixed seed matrix and asserts the intended
# recovery — bounded retry+backoff, replica failover, breaker trip and
# probe, deadline expiry without goroutine leaks, and partial results. The
# elastic-membership scenarios (TestChaosRebalance*, TestChaosJoin*,
# TestChaosMembership*) crash workers mid-rebalance and mid-join and assert
# clean aborts with exact answers throughout (DESIGN.md §15).
chaos:
	$(GO) test -race -count=1 -run 'TestChaos' ./internal/dist/... ./internal/faultnet/...

# fuzz gives every fuzz target a short budget: the invariant harness
# (builders must satisfy the oracles on fuzzed scenarios), the δ-estimation
# differential (bottleneck matching vs. brute force), the routing/codec
# differentials in internal/layout, the scan-kernel differential (vectorized
# kernels vs naive scan across every encoding, through the PAWC codec; three
# seeds hold a raw column in ascending pieces, which is searched, not swept),
# the table decoder (arbitrary payload bytes: an error or a table, never a
# panic — a payload is what a worker takes off the wire at an install; one seed
# is a sorted raw chunk, whose pieces Decode derives again), and the drift
# differential (fuzzed query streams against a live cluster with the drift
# controller attached — every answer must match the static-layout oracle,
# before, during and after any migration), and the membership differential
# (fuzzed join/leave/crash/tick/rebalance sequences against a live elastic
# cluster — every answered query must match the dataset oracle through the
# churn), and the wire-codec round trip (every message type: arbitrary bytes
# decode to an error or to a message that re-encodes to itself, never a panic
# or an allocation larger than the input), and the SQL rewriter (arbitrary
# clause and statement bytes: an error or disjoint boxes, never a panic — a
# statement is client input to the master), and the construction ranks
# (selection and the median cut against sorting, on inputs of duplicates, both
# zeros, NaNs and infinities).
fuzz:
	$(GO) test ./internal/sim -run FuzzInvariants -fuzz FuzzInvariants -fuzztime 30s
	$(GO) test ./internal/workload -run FuzzMinimalDelta -fuzz FuzzMinimalDelta -fuzztime 30s
	$(GO) test ./internal/layout -run FuzzRoutingDifferential -fuzz FuzzRoutingDifferential -fuzztime 30s
	$(GO) test ./internal/colstore -run FuzzScanDifferential -fuzz FuzzScanDifferential -fuzztime 30s
	$(GO) test ./internal/colstore -run FuzzDecode -fuzz FuzzDecode -fuzztime 30s
	$(GO) test ./internal/drift -run FuzzDriftDifferential -fuzz FuzzDriftDifferential -fuzztime 30s
	$(GO) test ./internal/dist -run FuzzMembershipDifferential -fuzz FuzzMembershipDifferential -fuzztime 30s
	$(GO) test ./internal/dist -run FuzzWireRoundTrip -fuzz FuzzWireRoundTrip -fuzztime 30s
	$(GO) test ./internal/sqlrew -run 'FuzzRewrite$$' -fuzz 'FuzzRewrite$$' -fuzztime 30s
	$(GO) test ./internal/sqlrew -run FuzzRewriteSQL -fuzz FuzzRewriteSQL -fuzztime 30s
	$(GO) test ./internal/kdtree -run FuzzRanks -fuzz FuzzRanks -fuzztime 30s

# bench-smoke builds and smoke-tests the end-to-end benchmark (benchmark/,
# BENCHMARK.json). It is its own module (paw/benchmark, replace paw => ../),
# so the root `go build ./...` and `go test ./...` never see it: this target
# is what catches an internal API change that would break the benchmark —
# vet first, so a compile break is reported as one rather than as a failed
# test binary. It also runs every selection-kernel and request-path benchmark
# case once, so a kernel that panics on an odd group size fails here, and
# range routing over the 5 184-partition grid with a data envelope on every
# partition (ns/query; TestAppendPartitionsForEnvelopesAllocs pins its 0
# allocations in tier 1), and the set-up benchmarks once each.
bench-smoke:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...
	$(MAKE) bench-kernels BENCHTIME=1x
	$(MAKE) bench-request-path BENCHTIME=1x
	$(MAKE) bench-setup SETUPTIME=1x
	$(GO) test ./internal/layout -run '^$$' -bench 'AppendPartitionsForEnvelopes$$' -benchmem -benchtime=1x

# bench-kernels times the selection kernels on every encoding — narrow on runs;
# selectSpans, countSpans and refine on the rest; narrow on a raw chunk in
# ascending pieces of 8, 32, 89 and 2 048 values (raw/narrow-N) beside the
# sweep it replaces (raw/countSpans) — and the whole pipeline on run columns
# ahead of a raw one, in no order (runs-then-raw) and in the builder's
# (runs-then-sorted-raw), count and scan, each on one replayed row group and on
# 256 fresh ones at p ≈ ½ (BenchmarkKernel, DESIGN.md §11 "Branch-free
# selection"). A per-value kernel with a data-dependent branch reads ~4× apart
# on the two; these read within ~1.3× (narrow, which works a run or a piece at
# a time, pays per run or per search — its binary search does branch on the
# data, which is why colstore.minSearchRows is set where raw/narrow-N/fresh
# meets raw/countSpans/fresh; past that the fresh regime is memory-bound).
# Read both columns; nothing is asserted on time.
BENCHTIME ?= 20000x
bench-kernels:
	$(GO) test ./internal/colstore -run '^$$' -bench Kernel -benchtime=$(BENCHTIME)

# bench-request-path times the fixed per-query cost in front of the scan: the
# SQL rewrite of the end-to-end benchmark's statement shape (ns, bytes and
# allocations per statement; TestRewriteAllocs pins the last) and one
# Mux.Call/ServeConn round trip over loopback TCP with 1 and with 8 calls in
# flight, with no deadline, under a context deadline (a benchmark client's
# call) and under that plus a per-call bound (a master's call to a worker;
# DESIGN.md §12). Nothing is asserted on time.
bench-request-path:
	$(GO) test ./internal/sqlrew -run '^$$' -bench 'RewriteSQL$$' -benchmem -benchtime=$(BENCHTIME)
	$(GO) test ./internal/serve -run '^$$' -bench 'ServeConnEcho' -benchmem -benchtime=$(BENCHTIME)

# bench-setup times the two halves of the end-to-end benchmark's setup_s on
# its 2 M rows: core.Build on each benchmark layout shape (BenchmarkBuild:
# tpch-selective, tpch-wide-scan, osm-hot-repeat; layout generation, Table II's
# first column) and blockstore.Materialize through two k-d layouts and a PAW
# layout with irregular partitions (BenchmarkMaterialize; route-ns/row is the
# bulk routing pass). Nothing is asserted on time.
SETUPTIME ?= 5x
bench-setup:
	$(GO) test ./internal/core -run '^$$' -bench 'Build$$' -benchmem -benchtime=$(SETUPTIME)
	$(GO) test ./internal/blockstore -run '^$$' -bench 'Materialize$$' -benchmem -benchtime=$(SETUPTIME)

# loc prints the non-test Go line count of every package and of module paw
# (benchmark/ is its own module and is left out): the figure ROADMAP.md and
# DESIGN.md §16 quote each round. Run it at the parent and at the change; the
# difference is a PR's "net effect" line.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' -exec wc -l {} + \
		| awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d  module paw (non-test, excluding benchmark/)\n", t }'

# loc-check fails when that count exceeds LOC_CEILING, the count of the PR that
# last set it. ISSUE 23 set it to 26 861 (from 27 325). ISSUE 24 bought +278:
# the tile order's tail key, a raw chunk's ascending pieces and the searching
# form of narrow (internal/colstore +226, half of it comment), the searchable:
# line of `pawcli build`/`stats` (layout +30, pawcli +7), the drift gate on
# opened bytes (dist +5, drift +7, bench +3) — for −87 % of
# scan_bytes_per_query on tpch-wide-scan. Then +40 bought one timer per
# serve.Mux connection that keeps every call's deadline (serve +30: the reaper,
# the waiter's deadline, the write it bounds; the socket write deadline and the
# worker's yield went), and one deadline value per RPC attempt in place of a
# derived context (dist +10). Then +113 bought selection for medians and ranks
# in place of three sort-based median copies (kdtree +29 with its split on
# qdtree's cut, core −39), TopCuts's bucketed cut counts (qdtree +28), the
# per-call routing checks of the bulk walk (layout +78), the bulk row of
# `pawbench -routing` (bench +13) and the result-cache hit's deferred deadline
# (dist +4) — for a quarter off setup_s on tpch-wide-scan. Then −1 059
# returned what only its own tests read: the MaxSkip and adaptive baselines,
# kNN and the histogram (817 lines of whole packages), the drift monitor's
# waste ledger (drift −72) and the router's storage-tuner extras (router −54,
# dist −8). Then +46 bought PAWC v3: raw values stored as order-key offsets
# bit-packed at each chunk's width, sharing FOR's layout and kernel arm
# (internal/colstore +32: packing, the one-load extraction, the bound mapping
# onto key offsets, the codec), the mean raw width on the "stored:" line
# (layout +6, pawcli +1) and in BENCH_scan.json (bench +5), and the pointer
# receivers of sma.Aggregates (sma +2) — for a fifth off the stored bytes and
# heap_mb of osm-hot-repeat. Then −917 returned the paper's future-work
# sketches: beam search with its α tuner (core −334, the facade −67,
# qdtree's TopCuts folded into BestCut −22), the Hungarian min-average δ
# (workload −110), the makespan placer and budgeted replication with their
# oracle (placement −222, invariant −56, cluster −14), and their ablations
# (bench −81, sim −9); the distributed example places on the ring (−2).
# Then −316 returned internal/ingest: the drift region rebuild and both
# offline references run the paper's §IV-E refinement in place of its
# workload-blind row-cap splitter (ingest −287, drift −15, bench −14).
# Then −274 returned the cluster simulator: Table IV and Fig. 15b time the
# real in-process cluster (cluster −207, bench +74 for the measured
# endToEnd and the fleet start-up it shares with the drift and rebalance
# benches), the point R-tree only its tests read (rtree −126), the REPL's
# and the SQL example's simulated time (pawcli −6, sqlrouting −6) and
# blockstore's one-value WriteMBps field (blockstore −2); dist's package
# comment stops describing the simulator (dist −1).
# Then −218 turned one-value knobs into constants: the retry values, the
# ring's virtual-node count and the trace ring's size (dist −93 with the
# rebalance byte budget, membership −68, trace −2), drift's slack, cooldown,
# oracle switch and copy count, now derived from the placement (drift −7,
# bench −4), and the flags that set them (pawmaster −41, pawworker −2,
# the distributed example −1).
# Then −538 gave every exported function a caller (api_test.go): 472 lines of
# functions only their own tests called, or none, deleted with the report
# boilerplate of pawbench (−60) and membership's Plan.Target, Move.Drop and
# MembershipConfig.Replicas; 66 lines of test oracles moved into _test.go
# files (qdtree's candidate set, invariant's violatedOracles, workload's
# strict δ estimate).
# Then 24 016 → 24 012: one dist.StartFleet and one sqlrew.BoxSQL replaced every hand-rolled fleet and box renderer.
# Growing the module from here on is an edit of this
# line, in the diff that does the growing.
LOC_CEILING := 24012
loc-check:
	@n=$$($(MAKE) -s loc | awk 'END { print $$1 }'); \
	if [ "$$n" -gt $(LOC_CEILING) ]; then \
		echo "loc-check: module paw has $$n non-test lines, over the ceiling of $(LOC_CEILING) (Makefile, LOC_CEILING)"; exit 1; \
	fi; \
	echo "loc-check: module paw has $$n non-test lines (ceiling $(LOC_CEILING))"

# bench-construction regenerates BENCH_construction.json: construction
# ns/op, allocs/op and parallel speedup at 1/2/4/8 workers, tracked across
# PRs.
bench-construction:
	$(GO) run ./cmd/pawbench -construction BENCH_construction.json

# bench-routing regenerates BENCH_routing.json: ns/query, queries/sec and
# allocs/query for linear vs indexed vs batched range routing and point
# routing on a sealed 5k-partition layout, tracked across PRs.
bench-routing:
	$(GO) run ./cmd/pawbench -routing BENCH_routing.json

# bench-scan regenerates BENCH_scan.json: vectorized columnar scan kernels vs
# the naive reference (MB/s, rows/s, bytes decoded vs skipped, allocs/op,
# encoded-vs-naive speedup per selectivity), tracked across PRs.
bench-scan:
	$(GO) run ./cmd/pawbench -scan BENCH_scan.json

# bench-drift regenerates BENCH_drift.json: the drifting-workload scenario
# family played against live clusters with the drift controller attached —
# trigger fidelity per scenario, cost-regression recovery time, queries
# served during migration, and the offline-rebuild baseline, tracked across
# PRs.
bench-drift:
	$(GO) run ./cmd/pawbench -drift BENCH_drift.json

# bench-rebalance regenerates BENCH_rebalance.json: the elastic-membership
# lifecycle on a live cluster — a worker joins over the wire and the master
# rebalances with minimal movement, then the worker drains and leaves — with
# data moved vs the consistent-hash ideal and query availability through
# both events, tracked across PRs.
bench-rebalance:
	$(GO) run ./cmd/pawbench -rebalance BENCH_rebalance.json

# obs-demo exercises the telemetry pipeline end to end: build a layout with
# the metrics registry attached, emit the structured build report (phase
# timings, Alg. 1–3 split statistics, tree shape, cost decomposition) and
# render it. The phase timings must explain >= 90% of the wall time.
obs-demo:
	$(GO) run ./cmd/pawcli build -rows 40000 -report build_report.json
	$(GO) run ./cmd/pawcli stats build_report.json

# trace-demo exercises the distributed tracing pipeline end to end: the
# distributed example runs with every query traced, prints an EXPLAIN
# ANALYZE span tree, and writes the /traces JSON document (recent traces +
# latency exemplars) and the schema-versioned JSONL cost-record log — the
# artifacts the CI telemetry job uploads.
trace-demo:
	$(GO) run ./examples/distributed -trace-out cost_records.jsonl -traces-dump traces.json
