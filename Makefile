# Tier-1 verification plus the concurrency and performance gates added with
# the parallel construction substrate (internal/parbuild), the sealed
# routing index (internal/rtree + layout batch costing), and the
# paper-invariant oracle suite (internal/invariant + internal/sim).

GO ?= go

.PHONY: check fmt-check build vet test race chaos fuzz fuzz-smoke paper-check loc loc-check doc-check bench-smoke bench-kernels bench-request-path bench-setup bench-construction bench-routing bench-scan bench-drift bench-check bench-rebalance obs-demo trace-demo

# check is the full tier-1 gate: formatting, build, vet, tests, and the race
# detector over every package that runs concurrent construction or routing
# code.
check: fmt-check build vet test race

# fmt-check fails, listing them, when gofmt would rewrite any Go file of the
# module or of benchmark/ (the benchmark's build directory is left out).
fmt-check:
	@out=$$(gofmt -l . | grep -v '^\.bench_build/'); \
	if [ -n "$$out" ]; then echo "fmt-check: gofmt would rewrite:"; echo "$$out"; exit 1; fi

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
# goroutines), the SQL rewriter and the pawmaster binary's tests under the race
# detector in short mode. Any new fan-out
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
# clean aborts with exact answers throughout, and a partition whose every
# holder died aborts the round with dist.ErrPartitionLost (DESIGN.md §15).
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
# zeros, NaNs and infinities), and the two file decoders — PAWL layouts and
# PAWD datasets (arbitrary bytes: an error or a value that re-encodes to bytes
# decoding to the same value, never a panic or an allocation the input did
# not pay for; these are the files pawworker, pawmaster and pawcli load).
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
	$(GO) test ./internal/layout -run '^FuzzDecode$$' -fuzz '^FuzzDecode$$' -fuzztime 30s
	$(GO) test ./internal/dataset -run FuzzRead -fuzz FuzzRead -fuzztime 30s

# fuzz-smoke gives each decoder of outside bytes 10 s: the four binary formats
# (internal/binfmt), so a decoder that panics on garbage fails CI's check job.
fuzz-smoke:
	$(GO) test ./internal/layout -run '^FuzzDecode$$' -fuzz '^FuzzDecode$$' -fuzztime 10s
	$(GO) test ./internal/colstore -run '^FuzzDecode$$' -fuzz '^FuzzDecode$$' -fuzztime 10s
	$(GO) test ./internal/dist -run FuzzWireRoundTrip -fuzz FuzzWireRoundTrip -fuzztime 10s
	$(GO) test ./internal/dataset -run FuzzRead -fuzz FuzzRead -fuzztime 10s

# paper-check regenerates every experiment table (`pawbench -exp all -md`,
# ~40 s) and fails unless RESULTS.md holds exactly the generated table rows,
# table by table and cell for cell. Only the measured times are skipped, by
# table ID and row label: all of table2, table4's end-to-end time row and
# fig15b's 8GB/38GB/75GB rows; and the hand-written `rule` table of the
# Fig. 15 note, which no experiment prints. A change that moves a
# deterministic cell must regenerate RESULTS.md in the same diff.
PAPER_ROWS = awk '/^\*\*/ { id = substr($$1, 3); next } \
	!/^\|/ { head = ""; next } \
	{ split($$0, cell, "|"); label = cell[2]; gsub(/^ +| +$$/, "", label); if (head == "") head = label } \
	id == "table2" || id == "table4" && label == "end-to-end time (ms, measured)" { next } \
	id == "fig15b" && (head == "rule" || label ~ /^(8|38|75)GB$$/) { next } \
	{ print id "\t" $$0 }'
paper-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/pawbench -exp all -md > "$$tmp/gen.md" && \
	$(PAPER_ROWS) RESULTS.md > "$$tmp/want" && $(PAPER_ROWS) "$$tmp/gen.md" > "$$tmp/got" && \
	if ! diff "$$tmp/want" "$$tmp/got"; then \
		echo "paper-check: RESULTS.md rows (<) differ from pawbench -exp all -md (>)"; exit 1; \
	fi && echo "paper-check: all $$(wc -l < "$$tmp/want") compared rows of RESULTS.md reproduce"

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
# (runs-then-sorted-raw), counted, each on one replayed row group and on
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
# first column; plus qdtree.Build and kdtree.Build on tpch-selective) and blockstore.Materialize through two k-d layouts and a PAW
# layout with irregular partitions (BenchmarkMaterialize; route-ns/row is the
# bulk routing pass; largest-ms its largest partition built alone), and one
# partition's colstore.Builder build beside its gather, tiling, run-key census
# and tile sort, each alone (BenchmarkBuildPhases: 4-column TPC-H records at
# 2^17 rows and at 2^20, the size of tpch-selective's Multi-Group remainder,
# and 2-column OSM ones; ns/row on a GOMAXPROCS-wide pool). Nothing is
# asserted on time.
SETUPTIME ?= 5x
bench-setup:
	$(GO) test ./internal/core -run '^$$' -bench 'Build$$' -benchmem -benchtime=$(SETUPTIME)
	$(GO) test ./internal/blockstore -run '^$$' -bench 'Materialize$$' -benchmem -benchtime=$(SETUPTIME)
	$(GO) test ./internal/colstore -run '^$$' -bench 'BuildPhases$$' -benchtime=$(SETUPTIME)

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
# Then +41 placed partitions in leaf runs: placement.LeafRuns and
# Replicated.WorkersPerQuery (placement +53, half of it comment), the
# workers-per-query rows of Table IV and Fig. 15b (bench +8), and drift's
# added partitions taking the removed ones' replica sets (drift −20).
# Then −81 left one way to build a layout: core.BuildMethod is the one method
# switch (core +43, the facade −6, bench −16, sim −7, pawviz −10), pawgen
# partition and layout-info fold into pawcli build and check (pawgen −129,
# pawcli +44), and pawworker and pawmaster share one checked loader,
# invariant.LoadPair over dataset.ReadFile (invariant +26, dataset +22,
# pawworker −23, pawmaster −30), and ApplyMigration compares each entry's
# workers with the placement (dist +5).
# Then −422 gave the five binary formats one codec, internal/binfmt (+205):
# PAWC's leWriter/leReader (colstore −264), the wire's reader (dist −136),
# and the field-by-field binary.Read/binary.Write of PAWL (layout −137), PAWD
# (dataset −38) and PAWQ (workload −52); every format is byte-identical.
# Then −212 deleted whole-batch scan sharing and every unread metric series:
# batchFlight, batchKey, markSharedSpans, the shared-scan counter, the two
# per-batch byte histograms, the sampled-trace and installed-byte counters
# (dist −94), serve.Flight (serve −49), the parbuild pool series with
# Pool.Instrument and its three call sites (parbuild −63, core/qdtree/kdtree
# −3), obs.ByteBuckets (obs −9) and trace.KeyShared (trace −4); pawmaster's
# re-encode fallback follows the served layout (pawmaster +10).
# Then −117 let a layout file carry the scope it was built for: the PAWQ
# query log and its box layout (workload −88, binfmt −9), the router's query
# recorder (router −11), the input-free oracle subset (invariant −19),
# pawmaster's two scope flags (pawmaster −13), pawcli build's query-log
# output (pawcli −4), the example's log (−6) and sim.Greedy, now
# core.Method.Greedy (sim −6, core +11 with BuildMethod recording the
# scope); PAWL v2 stores δ and QH and refuses mixed dimensionality (layout
# +24), and drift reads the scope from the layout (drift +2, bench +2).
# Then −302 left the column store one scan mode, count: the materialising
# scan, its gather kernel and RowsDecoded, and PAWC v4's unread SMA count,
# sums and zone word (colstore −175, sma −3, trace −3, bench −23), and the
# names a type-resolving caller guard found that only their own tests
# called, deleted or moved into _test.go files (sim −30, dist −15,
# rtree −9, tuner −9, drift −8, obs −7, blockstore −6, membership −6, the
# facade −5, layout −3); dist's rebalance counts the payloads it ships.
# Then −91 made dictionary codes bit-packed ranks, so every non-RLE chunk
# shares one kernel loop (colstore −100), took the exemplar bounds from obs
# (trace −14) and made the rebalance cooldown a constant (dist −3); the drift
# bench's boot-layout regressed cost (bench +23) and the packed-chunk census
# (layout +2, pawcli +1) rode along.
# Then −191 kept each telemetry fact once: obs has three instrument kinds —
# Timer went and its Span moved onto Histogram, so the build phases and the
# per-worker call series are latency histograms (obs −60, layout +3 for the
# report); the master fills one trace.CostRecord per query, which is both its
# cost-log line and its slow-query line (dist −78 with queryStats,
# Config.AllowPartial and three test-only helpers; trace +20 for the record's
# log rendering and its docs); pawmaster's -partial went (pawmaster −11 with
# the ring derivation); the LRU's, the admission controller's and the drift
# controller's test-only counters went (serve −37, drift −10; faultnet −8,
# a test helper moved into its tests); and one membership.StaticPlacement
# (+16) replaced three hand-built ring derivations (pawworker −8, the
# distributed example −9, bench −9).
# Then +74 put set-up on both cores: bulk routing takes a Multi-Group split's
# irregular remainder once the siblings before it have rejected the point,
# without testing its holes (layout +42: remainderOf, sameBox, the checkRest
# arm and their docs), and a large node evaluates its two split families,
# and expands its groups, concurrently (core +23 with the fan helper; the
# bmin count stops at the MinRows-th row); the drift bench waits for a check
# in flight before the next falls due (bench +9) — for −16 % of setup_s on
# tpch-selective.
# Then +146 cut set-up CPU with the same stores: colstore.Builder's tile
# selection partitions in blocks, its tile sort is a radix sort and its run-key
# census hashes (colstore +108, a quarter of it comment), and expandToMin keeps
# its MinRows smallest ranks in a heap, skipping rows that cannot enter it
# (core +38) — for −19 % of setup_s on tpch-selective.
# Then −49 left the master shipping only what a worker holds: pawmaster's
# re-encode fallback and MembershipConfig.PayloadSource went, and a move with
# no reachable holder aborts with dist.ErrPartitionLost (pawmaster −39,
# dist −6); dist.Config.DrainTimeout, drift.Config.Parallelism and
# blockstore.Config.BlockBytes became constants (drift −3, blockstore −1,
# colstore −1 and membership +1 in comments).
# Then +152 had the builders read a gathered sample: dataset.Gather copies the
# sample rows into dense columns, split among the pool's workers (dataset
# +44), and Layout.MapSampleRows hands back the caller's row indices (layout
# +17, half of it the Partition docs); qdtree.BestCut finds a row's bucket
# through a grid of equal cells (qdtree +45 with the gather), kdtree.Select
# partitions with a branch-free Lomuto pass (kdtree +24 with the gather),
# core +9; and the auto-rebalance waits for a new membership view after a
# lost-partition abort (dist +13) — for −21 % of setup_s on tpch-selective.
# Then +162 put the Multi-Group remainder's build on both cores:
# colstore.Builder's gather, run-key census (chunk censuses merged into one
# distinct set) and tile extent pass run in record chunks, its selection takes
# a sampled pivot and BuildAll starts the largest partition first (colstore
# +132, a third of it comment); NewBuilder's domain pass runs a column a task
# through dataset.ColumnRange (dataset +7); the k-d split partitions its rows
# in place (kdtree +23) — for −13 % of setup_s on tpch-selective.
# Then −1 gave dist one clock for its own schedules: dist/clock.go (+64) is
# paid for by the tick-less membership mode, the ticker loops of the master
# and the heartbeater, the drain poll and the test-only drain field (the rest
# of dist −37), by routing every layout through its index, the unsealed
# fallback gone (layout −27), and by pawmaster's TickEvery line (−1).
# Then +60 bought workers that serve partition files: blockstore's directory
# format, Store.WriteDir and Open with its rows-and-envelope check (+55), the
# lazy epoch-0 lookup and the join's layout digest (dist +31), pawcli build
# -store (pawcli +3 net) and layout.ReadFile (+15, which pawcli check,
# invariant −6 and pawworker now share), paid in part by pawworker's dataset
# load, placement and three flags (pawworker −7), membership.Checksum
# (membership −27) and pawmaster's workerStore (−4).
# Then +173 bought the block routing engine (layout/route.go): row blocks
# dealt top-down by branch-free partitions into per-partition lists, each
# child tested only on the bounds it adds to its parent, the second half of
# an axis split and a block inside the root's box taken on derived checks
# (layout +180), paid in part by RouteAssign, the per-row walk's checks,
# Validate's own loop, blockstore.partitionRows (blockstore −16) and the
# drift rebuild's row list (drift −4); dist +12 bounds the lost-partition
# error, bench +1 names the bulk row — for −75 % of BenchmarkMaterialize's
# route-ns/row.
# Then +197 bought tile splits that weigh the layout's workload in partitions
# of two or more tail columns: the straddling filter, the sampled cut and its
# crossing count, key-space query boxes, and the run-key census moved ahead of
# the tiling, its ranks carried in the records' first words (colstore +125,
# half of it comment); Layout.ExtendedHist (layout +18), which Materialize
# (blockstore +1) and drift's payloads (drift +3: the grown scope set where
# the patch is made) hand the builder, and core.Build recording δ and QH
# (core +3); bulk routing joined from counted shares instead of grown lists
# (layout +24); a batch's unread partition files read ahead on the scan pool
# (dist +23) — for −20 % of scan_bytes_per_query on osm-hot-repeat.
# Then −1: pawmaster boots from the layout file, which carries the column
# names (layout +15), its -data flag, boot dataset check and four drift
# tuning flags went (pawmaster +1 for -drift's own dataset load) and with
# them invariant.LoadPair (invariant −17); the drift flags' defaults are
# drift.Config's.
# Then 0: a layout records the recipe it was built with (layout +29: the two
# fields, CheckRecipe, PAWL v4's words), core.Rebuild rebuilds a drift region
# and both offline references with it (core +54), pawcli check prints it (+6)
# and pawmaster -drift refuses a layout without one (+3), paid by
# drift.Config's four rebuild and gate fields, the controller's own sampler
# and a redundant escape check (drift −49), and the drift bench's options,
# now constants, and its own offline builder (bench −43).
# Then −103 gave each worker slot one record and one connection: the
# two-connection pool, the fleet snapshot, Master.links and the heartbeater's
# own dialer became one redialing link (dist −123); serve.DialMux takes the
# caller's context (serve +7); PAWC's version refusal names its remedy
# (colstore +5); the drift bench leaves the recovery columns out of scenarios
# that never migrated (bench +4, pawbench +4).
# Then +69 made a store a function of its rows' values and let drift read its
# region back from the workers: colstore.Builder breaks every tie on a hash of
# the rows' values, then the values (compareRecords), samples its workload cut
# by value (at least 256 keys) and measures extents against the layout's
# domain, and Table.AppendColumns decodes a fetched partition (colstore +88,
# a third of it comment); dist's one fetch path, FetchPartitions, which
# rebalance shares (dist +38); drift rebuilds from the fetched rows (drift
# +12, blockstore +2); paid by pawmaster's dataset load and check (pawmaster
# −11), invariant.CheckData's own entry point (invariant −17), RouteIndices'
# row subset and descriptor.AllRows (layout −19, descriptor −13, bench −1),
# core.Rebuild's rows (core −4) and dataset.ColumnRange (dataset −6).
# Then −34 gave master and worker one session server and every call one link
# rule: the worker's session tracking, the master's accept goroutine and
# Master.linkFailed went (dist −41); serve.Mux.Down (serve +7).
# Then −41 dropped the layouts' per-leaf sample rows and made PAW's irregular
# refinement the k-d builder's (core −68, qdtree −4; layout.LeafRows, the
# tests' record of them, layout +21; kdtree +7, invariant +3).
# Growing the module from here on is an edit of this
# line, in the diff that does the growing.
LOC_CEILING := 23440
loc-check:
	@n=$$($(MAKE) -s loc | awk 'END { print $$1 }'); \
	if [ "$$n" -gt $(LOC_CEILING) ]; then \
		echo "loc-check: module paw has $$n non-test lines, over the ceiling of $(LOC_CEILING) (Makefile, LOC_CEILING)"; exit 1; \
	fi; \
	echo "loc-check: module paw has $$n non-test lines (ceiling $(LOC_CEILING))"

# doc-check fails when DESIGN.md, README.md or TESTING.md passes its line
# ceiling, as loc-check does for the code: a diff that grows a document on
# purpose raises its number here, and one that shrinks it may lower it.
DOC_CEILINGS := DESIGN.md:2490 README.md:928 TESTING.md:1153
doc-check:
	@fail=0; for c in $(DOC_CEILINGS); do f=$${c%%:*}; max=$${c##*:}; n=$$(wc -l < $$f); \
		if [ "$$n" -gt "$$max" ]; then echo "doc-check: $$f has $$n lines, over its ceiling of $$max (Makefile, DOC_CEILINGS)"; fail=1; \
		else echo "doc-check: $$f has $$n lines (ceiling $$max)"; fi; \
	done; exit $$fail

# The snapshot and demo targets below run their command from a binary that go
# build put in .bin/: go build stamps the commit into the files' build_info
# inside a git checkout and builds without it outside one, where go run stamps
# "(devel)". $(call cmd,pawbench) builds ./cmd/pawbench and names the binary.
cmd = $(GO) build -o .bin/$(1) ./cmd/$(1) && .bin/$(1)

# bench-construction regenerates BENCH_construction.json: construction
# ns/op, allocs/op and parallel speedup at 1/2/4/8 workers, tracked across
# PRs.
bench-construction:
	$(call cmd,pawbench) -construction BENCH_construction.json

# bench-routing regenerates BENCH_routing.json: ns/query, queries/sec and
# allocs/query for linear vs indexed vs batched range routing and point
# routing on a sealed 5k-partition layout, tracked across PRs.
bench-routing:
	$(call cmd,pawbench) -routing BENCH_routing.json

# bench-scan regenerates BENCH_scan.json: vectorized columnar scan kernels vs
# the naive reference (MB/s, rows/s, bytes decoded vs skipped, allocs/op,
# encoded-vs-naive speedup per selectivity), tracked across PRs.
bench-scan:
	$(call cmd,pawbench) -scan BENCH_scan.json

# bench-drift regenerates BENCH_drift.json: the drifting-workload scenario
# family played against live clusters with the drift controller attached —
# trigger fidelity per scenario, cost-regression recovery time, queries
# served during migration, and the offline-rebuild baseline, tracked across
# PRs.
bench-drift:
	$(call cmd,pawbench) -drift BENCH_drift.json

# bench-check fails when a deterministic column of a BENCH_*.json file, as the
# bench-* targets (or CI's telemetry job) just wrote it, differs from the
# committed file (git HEAD), and prints both. Deterministic are the columns
# equal across three runs and at GOMAXPROCS 1 (it needs jq); left out are
# timings, allocation counts, the host block and the rest of meta, and:
# routing's and scan's per-result workers (a GOMAXPROCS-wide pool),
# drift's migration_ms, and rebalance's queries_during (18 to 21 across runs)
# and rebalance_ms.
BENCH_COLUMNS_construction := {schema: .meta.schema, tpch_rows, sample_rows, min_rows, hist_queries, results: [.results[] | {method, workers}]}
BENCH_COLUMNS_routing := {schema: .meta.schema, index_height, partitions, point_queries, range_queries, modes: [.results[].mode]}
BENCH_COLUMNS_scan := del(.meta, .gomaxprocs, .num_cpu) + {schema: .meta.schema} | .results |= map(del(.allocs_per_op, .decoded_mb_per_sec, .mb_per_sec, .ns_per_op, .rows_per_sec, .speedup_vs_naive, .workers))
BENCH_COLUMNS_drift := {schema: .meta.schema, workers, window, check_every, scenarios: [.scenarios[] | del(.migration_ms)]}
BENCH_COLUMNS_rebalance := del(.meta) + {schema: .meta.schema} | .events |= map(del(.queries_during, .rebalance_ms))
bench_check = git show HEAD:BENCH_$(1).json | jq -S '$(BENCH_COLUMNS_$(1))' > $$d/committed; \
	jq -S '$(BENCH_COLUMNS_$(1))' BENCH_$(1).json > $$d/fresh; \
	if ! diff -u $$d/committed $$d/fresh; then \
		echo "bench-check: BENCH_$(1).json's deterministic columns differ from the committed file (- committed, + this run); re-take it with make bench-$(1) in the change that moves them"; fail=1; \
	fi;
bench-check:
	@d=$$(mktemp -d); trap 'rm -rf $$d' EXIT; fail=0; \
	$(foreach b,construction routing scan drift rebalance,$(call bench_check,$(b))) \
	if [ $$fail = 1 ]; then exit 1; fi; \
	echo "bench-check: every deterministic column of the five BENCH files equals the committed one"

# bench-rebalance regenerates BENCH_rebalance.json: the elastic-membership
# lifecycle on a live cluster — a worker joins over the wire and the master
# rebalances with minimal movement, then the worker drains and leaves — with
# data moved vs the consistent-hash ideal and query availability through
# both events, tracked across PRs.
bench-rebalance:
	$(call cmd,pawbench) -rebalance BENCH_rebalance.json

# obs-demo exercises the telemetry pipeline end to end, on the build half of
# the README cluster flow: generate a dataset file, build the layout a fleet
# would boot from over it with the metrics registry attached, emit the
# structured build report (phase timings, Alg. 1–3 split statistics, tree
# shape, cost decomposition) and render it. The phase timings must explain
# >= 90% of the wall time. CI then runs `pawcli check obs_demo.pawl`.
obs-demo:
	$(call cmd,pawgen) gen -rows 40000 -out obs_demo.pawd
	$(call cmd,pawcli) build -in obs_demo.pawd -layout obs_demo.pawl -report build_report.json
	.bin/pawcli stats build_report.json

# trace-demo exercises the distributed tracing pipeline end to end: the
# distributed example runs with every query traced, prints an EXPLAIN
# ANALYZE span tree, and writes the /traces JSON document (recent traces +
# latency exemplars) and the schema-versioned JSONL cost-record log — the
# artifacts the CI telemetry job uploads.
trace-demo:
	$(GO) run ./examples/distributed -trace-out cost_records.jsonl -traces-dump traces.json
