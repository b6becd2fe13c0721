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
# the elastic membership substrate (failure detector, ring placement), the
# tracing substrate (spans assemble across scatter goroutines), the SQL
# rewriter and the pawmaster binary's tests under the race detector in short
# mode. Any new fan-out
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

# loc-check fails when that count exceeds LOC_CEILING. The ceiling is the
# `make loc` of the change that last set it; raising or lowering it is a diff
# that CHANGES.md explains package by package.
LOC_CEILING := 23368
loc-check:
	@n=$$($(MAKE) -s loc | awk 'END { print $$1 }'); \
	if [ "$$n" -gt $(LOC_CEILING) ]; then \
		echo "loc-check: module paw has $$n non-test lines, over the ceiling of $(LOC_CEILING) (Makefile, LOC_CEILING)"; exit 1; \
	fi; \
	echo "loc-check: module paw has $$n non-test lines (ceiling $(LOC_CEILING))"

# doc-check fails when DESIGN.md, README.md or TESTING.md passes its line
# ceiling, as loc-check does for the code: a diff that grows a document on
# purpose raises its number here, and one that shrinks it may lower it.
DOC_CEILINGS := DESIGN.md:2489 README.md:928 TESTING.md:1153
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
