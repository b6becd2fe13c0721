package dist

import (
	"strconv"

	"paw/internal/obs"
)

// Distributed-path metric names. Per-worker call histograms carry a
// worker="<index>" label (one series per worker; the fleet is small and
// fixed at master construction). Every registered series has a row in
// README.md's metric table, which TestMetricInventory holds to the registry.
const (
	MetricQueries      = "dist_queries_total"
	MetricQueryLatency = "dist_query_latency_ns"
	MetricFanoutWidth  = "dist_fanout_width"
	MetricWorkerCallNs = "dist_worker_call_ns"
	MetricRedials      = "dist_worker_redials_total"
	MetricCallFailures = "dist_worker_call_failures_total"
	MetricInflight     = "dist_inflight_queries"

	// Failure-model counters (DESIGN.md §10): every retry, failover and
	// breaker transition on the distributed path is counted, so the chaos
	// suite can assert each injected fault maps to its intended recovery.
	MetricRetries         = "dist_worker_call_retries_total"
	MetricFailovers       = "dist_partition_failovers_total"
	MetricBreakerTrips    = "dist_breaker_trips_total"
	MetricBreakerProbes   = "dist_breaker_probes_total"
	MetricBreakerShorts   = "dist_breaker_short_circuits_total"
	MetricDeadlineExpired = "dist_query_deadline_expired_total"
	MetricPartialResults  = "dist_partial_results_total"
	MetricClientsDropped  = "dist_client_sessions_dropped_total"

	// Serving front-end counters (DESIGN.md §12): result-cache effectiveness,
	// admission-control sheds, cache invalidations, and clean deadline
	// expiries that kept their connection (the churn fix).
	MetricResultCacheHits    = "dist_result_cache_hits_total"
	MetricResultCacheMisses  = "dist_result_cache_misses_total"
	MetricCacheInvalidations = "dist_cache_invalidations_total"
	MetricQueriesShed        = "dist_queries_shed_total"
	MetricCleanExpiries      = "dist_call_clean_expiries_total"

	// MetricSlowQueries counts queries that crossed the slow-query threshold
	// (DESIGN.md §14).
	MetricSlowQueries = "dist_slow_queries_total"

	MetricWorkerScans         = "worker_scan_requests_total"
	MetricWorkerRows          = "worker_rows_matched_total"
	MetricWorkerBytesRead     = "worker_bytes_read_total"
	MetricWorkerBytesSkipped  = "worker_bytes_skipped_total"
	MetricWorkerGroupsRead    = "worker_groups_read_total"
	MetricWorkerGroupsSkip    = "worker_groups_skipped_total"
	MetricWorkerConns         = "worker_active_connections"
	MetricWorkerErrors        = "worker_scan_errors_total"
	MetricWorkerConnDropped   = "worker_dropped_connections_total"
	MetricWorkerDeadlineDrops = "worker_deadline_dropped_scans_total"

	// Migration counters (DESIGN.md §13): the drift re-partitioner's
	// footprint on the distributed path. Masters count whole migrations and
	// the per-partition install/reuse/byte volume; workers count the epoch
	// installs/retires they executed. The cache sweep counters split the
	// cutover's per-partition invalidation into result-cache entries rewritten
	// in place (renamed partitions) vs dropped (rebuilt region).
	MetricMigrations         = "dist_migrations_total"
	MetricMigrationsAborted  = "dist_migrations_aborted_total"
	MetricMigratedPartitions = "dist_migrated_partitions_total"
	MetricReusedPartitions   = "dist_reused_partitions_total"
	MetricMigratedBytes      = "dist_migrated_bytes_total"
	MetricCacheRemapped      = "dist_cache_entries_remapped_total"
	MetricCacheSwept         = "dist_cache_entries_swept_total"
	MetricLayoutEpoch        = "dist_layout_epoch"

	MetricWorkerInstalls     = "worker_partition_installs_total"
	MetricWorkerEpochRetires = "worker_epoch_retires_total"

	// Membership and rebalance counters (DESIGN.md §15): the elastic
	// fleet's footprint. Joins/leaves/rejections count handshakes; the
	// state gauges snapshot the failure detector; the rebalance counters
	// accumulate the minimal-movement deltas actually shipped; drain
	// timeouts count epoch retirements that gave up waiting for in-flight
	// old-epoch queries.
	MetricMemberJoins       = "dist_member_joins_total"
	MetricMemberJoinRejects = "dist_member_join_rejects_total"
	MetricMemberLeaves      = "dist_member_leaves_total"
	MetricMembersAlive      = "dist_members_alive"
	MetricMembersSuspect    = "dist_members_suspect"
	MetricMembersDead       = "dist_members_dead"
	MetricRebalances        = "dist_rebalances_total"
	MetricRebalanceParts    = "dist_rebalance_moved_partitions_total"
	MetricRebalanceBytes    = "dist_rebalance_moved_bytes_total"
	MetricDrainTimeouts     = "dist_drain_timeouts_total"
)

// Names of what is gone, kept only because benchmark/ — which a PR may not
// edit — compiles against them; ROADMAP.md item 5(b) removes them. None is
// registered, so each reads 0: the plan cache went, and so did whole-batch
// scan sharing (DESIGN.md §12).
const (
	MetricPlanCacheHits     = "dist_plan_cache_hits_total"
	MetricPlanCacheMisses   = "dist_plan_cache_misses_total"
	MetricWorkerSharedScans = "worker_shared_scans_total"
)

// FanoutBuckets are the histogram bounds for scatter width (workers hit per
// range).
func FanoutBuckets() []float64 {
	return []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32}
}

// masterMetrics is the optional master-side telemetry; the zero value is
// fully disabled (nil instruments no-op).
type masterMetrics struct {
	queries        *obs.Counter
	latency        *obs.Histogram
	fanout         *obs.Histogram
	redials        *obs.Counter
	failures       *obs.Counter
	inflight       *obs.Gauge
	retries        *obs.Counter
	failovers      *obs.Counter
	breakerTrips   *obs.Counter
	breakerProbes  *obs.Counter
	breakerShorts  *obs.Counter
	deadlines      *obs.Counter
	partials       *obs.Counter
	clientsDropped *obs.Counter

	resultHits         *obs.Counter
	resultMisses       *obs.Counter
	cacheInvalidations *obs.Counter
	overloads          *obs.Counter
	cleanExpiries      *obs.Counter
	slowQueries        *obs.Counter

	migrations         *obs.Counter
	migrationsAborted  *obs.Counter
	migratedPartitions *obs.Counter
	reusedPartitions   *obs.Counter
	migratedBytes      *obs.Counter
	cacheRemapped      *obs.Counter
	cacheSwept         *obs.Counter
	layoutEpoch        *obs.Gauge

	memberJoins         *obs.Counter
	joinRejects         *obs.Counter
	memberLeaves        *obs.Counter
	membersAlive        *obs.Gauge
	membersSuspect      *obs.Gauge
	membersDead         *obs.Gauge
	rebalances          *obs.Counter
	rebalanceMovedParts *obs.Counter
	rebalanceMovedBytes *obs.Counter
	drainTimeouts       *obs.Counter
}

// callHistogram is worker i's scan-call latency series (nil on a nil
// registry).
func callHistogram(reg *obs.Registry, i int) *obs.Histogram {
	return reg.Histogram(obs.Label(MetricWorkerCallNs, "worker", strconv.Itoa(i)), obs.LatencyBuckets())
}

// SetMetrics attaches (or, with nil, detaches) master telemetry: query
// latency, per-range fan-out width, one call histogram per worker, redial and
// failure counters, an in-flight query gauge, and the failure-model
// counters (retries, failovers, breaker transitions, deadline expiries,
// partial results, dropped client sessions).
func (m *Master) SetMetrics(reg *obs.Registry) {
	// Rebuild the fleet's per-worker call histograms under mu so a
	// concurrent join sees either the old or the new set, never a torn one.
	// The registry is remembered so workers that join later get their own.
	m.mu.Lock()
	m.metricsReg = reg
	f := m.fleet.Load().clone()
	f.calls = nil
	for i := range f.addrs {
		f.calls = append(f.calls, callHistogram(reg, i))
	}
	m.fleet.Store(f)
	m.mu.Unlock()
	if reg == nil {
		m.m = masterMetrics{}
		return
	}
	mm := masterMetrics{
		queries:        reg.Counter(MetricQueries),
		latency:        reg.Histogram(MetricQueryLatency, obs.LatencyBuckets()),
		fanout:         reg.Histogram(MetricFanoutWidth, FanoutBuckets()),
		redials:        reg.Counter(MetricRedials),
		failures:       reg.Counter(MetricCallFailures),
		inflight:       reg.Gauge(MetricInflight),
		retries:        reg.Counter(MetricRetries),
		failovers:      reg.Counter(MetricFailovers),
		breakerTrips:   reg.Counter(MetricBreakerTrips),
		breakerProbes:  reg.Counter(MetricBreakerProbes),
		breakerShorts:  reg.Counter(MetricBreakerShorts),
		deadlines:      reg.Counter(MetricDeadlineExpired),
		partials:       reg.Counter(MetricPartialResults),
		clientsDropped: reg.Counter(MetricClientsDropped),

		resultHits:         reg.Counter(MetricResultCacheHits),
		resultMisses:       reg.Counter(MetricResultCacheMisses),
		cacheInvalidations: reg.Counter(MetricCacheInvalidations),
		overloads:          reg.Counter(MetricQueriesShed),
		cleanExpiries:      reg.Counter(MetricCleanExpiries),
		slowQueries:        reg.Counter(MetricSlowQueries),

		migrations:         reg.Counter(MetricMigrations),
		migrationsAborted:  reg.Counter(MetricMigrationsAborted),
		migratedPartitions: reg.Counter(MetricMigratedPartitions),
		reusedPartitions:   reg.Counter(MetricReusedPartitions),
		migratedBytes:      reg.Counter(MetricMigratedBytes),
		cacheRemapped:      reg.Counter(MetricCacheRemapped),
		cacheSwept:         reg.Counter(MetricCacheSwept),
		layoutEpoch:        reg.Gauge(MetricLayoutEpoch),

		memberJoins:         reg.Counter(MetricMemberJoins),
		joinRejects:         reg.Counter(MetricMemberJoinRejects),
		memberLeaves:        reg.Counter(MetricMemberLeaves),
		membersAlive:        reg.Gauge(MetricMembersAlive),
		membersSuspect:      reg.Gauge(MetricMembersSuspect),
		membersDead:         reg.Gauge(MetricMembersDead),
		rebalances:          reg.Counter(MetricRebalances),
		rebalanceMovedParts: reg.Counter(MetricRebalanceParts),
		rebalanceMovedBytes: reg.Counter(MetricRebalanceBytes),
		drainTimeouts:       reg.Counter(MetricDrainTimeouts),
	}
	m.m = mm
}

// workerMetrics is the optional worker-side telemetry.
type workerMetrics struct {
	scans         *obs.Counter
	rows          *obs.Counter
	bytesRead     *obs.Counter
	bytesSkipped  *obs.Counter
	groupsRead    *obs.Counter
	groupsSkip    *obs.Counter
	errors        *obs.Counter
	activeConns   *obs.Gauge
	dropped       *obs.Counter
	deadlineDrops *obs.Counter

	installs     *obs.Counter
	epochRetires *obs.Counter
}

// SetMetrics attaches (or, with nil, detaches) worker telemetry: scan and
// row/byte counters, active-connection gauge and dropped-connection counter.
func (w *Worker) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		w.m = workerMetrics{}
		return
	}
	w.m = workerMetrics{
		scans:         reg.Counter(MetricWorkerScans),
		rows:          reg.Counter(MetricWorkerRows),
		bytesRead:     reg.Counter(MetricWorkerBytesRead),
		bytesSkipped:  reg.Counter(MetricWorkerBytesSkipped),
		groupsRead:    reg.Counter(MetricWorkerGroupsRead),
		groupsSkip:    reg.Counter(MetricWorkerGroupsSkip),
		errors:        reg.Counter(MetricWorkerErrors),
		activeConns:   reg.Gauge(MetricWorkerConns),
		dropped:       reg.Counter(MetricWorkerConnDropped),
		deadlineDrops: reg.Counter(MetricWorkerDeadlineDrops),

		installs:     reg.Counter(MetricWorkerInstalls),
		epochRetires: reg.Counter(MetricWorkerEpochRetires),
	}
}
