package dist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"paw/internal/geom"
	"paw/internal/layout"
	"paw/internal/obs"
	"paw/internal/placement"
	"paw/internal/router"
	"paw/internal/serve"
	"paw/internal/trace"
)

// Config tunes the master's failure handling and serving front-end. The
// zero value means "use the defaults" (DefaultConfig); Configure must be
// called before Start.
type Config struct {
	// Retry is the worker-call breaker policy; the retry and backoff
	// values are constants (policy.go).
	Retry RetryPolicy
	// CallTimeout bounds one scan RPC, including the dial (0: no per-call
	// bound beyond the query deadline).
	CallTimeout time.Duration
	// QueryTimeout bounds a whole query when the caller's context carries no
	// deadline of its own (0: unbounded).
	QueryTimeout time.Duration
	// SlowQuery logs a structured slog line for any query whose end-to-end
	// latency reaches the threshold: its trace.CostRecord (trace ID when
	// sampled, stage breakdown, partitions touched), client and error. 0
	// disables the slow-query log.
	SlowQuery time.Duration

	// ResultCacheSize bounds the result cache (SQL → clean, complete
	// QueryResponse with the plan and epoch it was answered under); 0
	// disables it. Partial and failed responses are never cached. A migration
	// cutover translates or drops each entry (sweepCaches); InvalidateCaches
	// empties it.
	ResultCacheSize int

	// MaxInflightQueries bounds the queries executing concurrently; the
	// excess fair-queues per client (maxQueuedPerClient each) and overflow is
	// shed with a typed overload error (serve.ErrOverloaded on clients). 0
	// disables admission control.
	MaxInflightQueries int
}

// Serving constants: no binary, benchmark or test ever needed another value.
const (
	// connsPerWorker is the fixed pool size of multiplexed connections per
	// worker. All in-flight scans pipeline over this pool; it spreads write
	// contention, not concurrency.
	connsPerWorker = 2
	// clientPipeline bounds the requests one client session may have
	// executing concurrently on the master.
	clientPipeline = 32
	// maxQueuedPerClient bounds each client's admission queue.
	maxQueuedPerClient = 32
	// drainTimeout bounds the post-cutover wait for in-flight old-epoch
	// queries before the old epoch is retired on the workers. Queries still
	// running after it fail with an unknown-epoch error, which a client may
	// retry against the new layout; the bound only exists so a wedged query
	// cannot pin an epoch forever. Expiries with queries still in flight are
	// counted (MetricDrainTimeouts). The wait is on the master's clock.
	drainTimeout = 30 * time.Second
)

// DefaultConfig returns the production defaults: a 3-failure breaker, a 5s
// per-call timeout, a 30s query timeout, a 256-entry result cache, and
// admission control at 256 in-flight queries.
func DefaultConfig() Config {
	return Config{
		Retry:              RetryPolicy{BreakerThreshold: 3},
		CallTimeout:        5 * time.Second,
		QueryTimeout:       30 * time.Second,
		ResultCacheSize:    256,
		MaxInflightQueries: 256,
	}
}

// Master is the networked master node: it owns the routing metadata (via
// router.Master), knows which workers host each partition (primary plus
// failover replicas), and scatters scan work over persistent multiplexed
// worker connections with deadlines, bounded retries and breaker-guarded
// failover. Above the scatter path sits the serving front-end (DESIGN.md
// §12): a result cache and fair admission control.
type Master struct {
	// view is the current routing state (router + placement + layout
	// epoch), swapped atomically at migration cutover so the query path
	// reads one consistent snapshot without locks. mig, when non-nil, is an
	// in-progress migration: the query path double-routes between view and
	// mig's next view (see planFor).
	view atomic.Pointer[routeView]
	mig  atomic.Pointer[activeMigration]
	// observer, when set, sees every served query (SetQueryObserver) — the
	// drift monitor's feed.
	observer atomic.Pointer[func(QueryObservation)]
	// tracer/costLog are the optional observability sinks (SetTracer,
	// SetCostLog): sampled query traces and the JSONL cost-record log
	// (DESIGN.md §14). Both default to nil, which costs the query path two
	// atomic loads and nothing else.
	tracer  atomic.Pointer[trace.Tracer]
	costLog atomic.Pointer[trace.CostLog]

	cfg Config
	jit *jitter
	seq atomic.Uint64 // request-ID source
	// routedHook, when set, runs on the serving path between routing and
	// scatter, with the routed view pinned. Test-only.
	routedHook func()
	// clock times the master's own schedules (clock.go).
	clock clock

	// fleet is the elastic worker-set snapshot (addresses, breakers, down
	// flags, call histograms), swapped atomically when a worker joins or moves
	// so the scatter path reads it lock-free (DESIGN.md §15). The lazily
	// dialed transports (links) stay under mu and grow with the fleet.
	fleet atomic.Pointer[fleet]
	// member, when non-nil, is the membership subsystem: the heartbeat
	// failure detector plus the rebalancer (EnableMembership).
	member atomic.Pointer[membershipState]

	// resultCache is nil when disabled; admission likewise.
	resultCache *serve.LRU[string, cachedResult]
	admission   *serve.Admission

	mu         sync.Mutex
	links      []*muxLink
	metricsReg *obs.Registry
	listener   net.Listener
	closed     bool
	wg         sync.WaitGroup
	// m is the optional distributed-path telemetry (SetMetrics); the zero
	// value is fully disabled.
	m masterMetrics
}

// fleet is one immutable snapshot of the worker set: addresses, breakers,
// liveness flags and call histograms, indexed by worker slot. Mutations (join,
// address change, metrics attach) clone the slice headers under the master
// mutex and swap the snapshot; the per-worker state itself — breakers, down
// flags — is carried by pointer, so it survives snapshot swaps and a breaker
// keeps its failure history across a fleet growth.
type fleet struct {
	addrs    []string
	breakers []*breaker
	// down marks workers the failure detector declared Dead: the scatter
	// path deprioritises them exactly like an open breaker, but the flag
	// flips on membership transitions rather than call outcomes.
	down  []*atomic.Bool
	calls []*obs.Histogram
}

func newFleet(addrs []string) *fleet {
	f := &fleet{
		addrs:    append([]string(nil), addrs...),
		breakers: make([]*breaker, len(addrs)),
		down:     make([]*atomic.Bool, len(addrs)),
	}
	for i := range f.breakers {
		f.breakers[i] = &breaker{}
		f.down[i] = new(atomic.Bool)
	}
	return f
}

// clone copies the slice headers, sharing the per-worker state pointers.
func (f *fleet) clone() *fleet {
	return &fleet{
		addrs:    append([]string(nil), f.addrs...),
		breakers: append([]*breaker(nil), f.breakers...),
		down:     append([]*atomic.Bool(nil), f.down...),
		calls:    append([]*obs.Histogram(nil), f.calls...),
	}
}

// call returns worker i's call-latency histogram (nil when metrics are
// disabled — nil histograms no-op).
func (f *fleet) call(i int) *obs.Histogram {
	if i >= len(f.calls) {
		return nil
	}
	return f.calls[i]
}

// isDown reports whether the failure detector has declared worker i dead.
func (f *fleet) isDown(i int) bool {
	return i < len(f.down) && f.down[i].Load()
}

// NewMaster wires the router with worker addresses and a single-copy
// placement map. Every partition of the layout must be placed on a valid
// worker. For replica-aware placement use NewMasterReplicated.
func NewMaster(r *router.Master, workerAddrs []string, place map[layout.ID]int) (*Master, error) {
	return NewMasterReplicated(r, workerAddrs, placement.Assignment(place).Replicated())
}

// NewMasterReplicated wires the router with a replicated placement: each
// partition's scan goes to the first (primary) worker of its set and fails
// over down the list when the primary is down or its breaker is open.
func NewMasterReplicated(r *router.Master, workerAddrs []string, rep placement.Replicated) (*Master, error) {
	if err := rep.Validate(r.Layout(), len(workerAddrs)); err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	m := &Master{links: make([]*muxLink, len(workerAddrs)), clock: wallClock{}}
	m.fleet.Store(newFleet(workerAddrs))
	m.view.Store(&routeView{router: r, replicas: rep})
	m.Configure(DefaultConfig())
	return m, nil
}

// routeView is one immutable routing snapshot: the router over one sealed
// layout, the placement of that layout's partitions, and the layout epoch
// the workers know those partition IDs under. inflight counts the queries
// currently pinned to the snapshot (planFor), so a cutover can wait for the
// old epoch to drain before retiring it on the workers.
type routeView struct {
	router   *router.Master
	replicas placement.Replicated // partition -> replica set, primary first
	epoch    uint64
	inflight atomic.Int64
	// drained, made by retireView, is signalled when the last pinned query
	// unpins the retiring view.
	drained chan struct{}
}

// retiring is what retireView takes off a view's in-flight count: a retiring
// view's count reads -retiring once its last query unpins, a serving view's
// is never negative, so unpin tells them apart with one compare, no lock.
const retiring = 1 << 62

// unpin releases one query's pin on v, waking a retireView that waits for it.
func (v *routeView) unpin() {
	if v.inflight.Add(-1) == -retiring {
		select { // a query that pins v after its retire and unpins finds it full
		case v.drained <- struct{}{}:
		default:
		}
	}
}

// Epoch returns the layout epoch the master currently serves.
func (m *Master) Epoch() uint64 { return m.view.Load().epoch }

// Router returns the router of the currently served layout epoch.
func (m *Master) Router() *router.Master { return m.view.Load().router }

// NumWorkers returns the current worker-slot count. Slots are stable for
// the master's lifetime: the fleet grows on joins and never compacts, so
// partition placements can name workers by index across membership changes.
func (m *Master) NumWorkers() int { return len(m.fleet.Load().addrs) }

// addWorker appends a fresh worker slot and returns its index. Callers must
// serialise slot growth (the membership join path holds its own mutex) so
// the fleet index always matches the tracker index.
func (m *Master) addWorker(addr string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.fleet.Load().clone()
	idx := len(f.addrs)
	f.addrs = append(f.addrs, addr)
	f.breakers = append(f.breakers, &breaker{})
	f.down = append(f.down, new(atomic.Bool))
	f.calls = append(f.calls, callHistogram(m.metricsReg, idx))
	m.links = append(m.links, nil)
	m.fleet.Store(f)
	return idx
}

// setWorkerAddr rebinds worker i to addr — a rejoin from a new host — and
// drops its stale link so the next call redials the new address.
func (m *Master) setWorkerAddr(i int, addr string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.fleet.Load()
	if i < 0 || i >= len(f.addrs) || f.addrs[i] == addr {
		return
	}
	nf := f.clone()
	nf.addrs[i] = addr
	m.fleet.Store(nf)
	if i < len(m.links) && m.links[i] != nil {
		m.links[i].close()
		m.links[i] = nil
	}
}

// Placement returns the current partition placement (shared, do not mutate).
func (m *Master) Placement() placement.Replicated { return m.view.Load().replicas }

// QueryObservation is what a drift monitor sees per served query
// (SetQueryObserver): the routed ranges with their partition lists, the scan
// cost the response reported, and the epoch it was served under. BytesOpened
// is the encoded size of the partitions the plan opened — every one's bytes
// are either scanned or skipped — which is the cost the layout decides;
// BytesScanned is what the kernels then could not spare. Cached marks
// result-cache hits — they represent real demand (the monitor should weigh
// them) but did no new I/O.
type QueryObservation struct {
	Ranges       []geom.Box
	IDs          []layout.ID
	BytesScanned int64
	BytesOpened  int64
	Epoch        uint64
	Cached       bool
}

// SetQueryObserver installs (or, with nil, removes) the per-query
// observation hook. The hook runs synchronously on the serving path — it
// must be cheap and must not call back into the master.
func (m *Master) SetQueryObserver(f func(QueryObservation)) {
	if f == nil {
		m.observer.Store(nil)
		return
	}
	m.observer.Store(&f)
}

func (m *Master) observe(plan router.Plan, resp *QueryResponse, epoch uint64, cached bool) {
	f := m.observer.Load()
	if f == nil {
		return
	}
	ob := QueryObservation{
		IDs:          plan.PartitionIDs(),
		BytesScanned: resp.BytesScanned,
		BytesOpened:  resp.BytesScanned + resp.BytesSkipped,
		Epoch:        epoch,
		Cached:       cached,
	}
	ob.Ranges = make([]geom.Box, len(plan.Ranges))
	for i, rp := range plan.Ranges {
		ob.Ranges[i] = rp.Range
	}
	(*f)(ob)
}

// SetTracer installs (or, with nil, removes) the query tracer. Sampled
// queries record a full span tree — admission, routing, per-range scatter,
// per-attempt RPCs and the workers' per-partition scan spans — retained in
// the tracer's ring buffer and exposed over /traces.
func (m *Master) SetTracer(tr *trace.Tracer) { m.tracer.Store(tr) }

// SetCostLog installs (or, with nil, removes) the JSONL cost-record log:
// one schema-versioned record per query (layout features, query shape,
// measured stage costs) — training data for a learned cost model.
func (m *Master) SetCostLog(l *trace.CostLog) { m.costLog.Store(l) }

// traceFor starts a trace for one query: the tracer's sampling decision,
// forced for EXPLAIN. A forced trace on a master with tracing disabled is
// recorded locally (never retained) so EXPLAIN always works.
func (m *Master) traceFor(force bool) *trace.T {
	tr := m.tracer.Load()
	if t := tr.Sample(force); t != nil {
		return t
	}
	if force && tr == nil {
		return trace.NewLocal()
	}
	return nil
}

// Configure replaces the failure-handling and serving configuration. The
// breaker, the result cache and admission control stay off when their sizes
// are 0. Call before Start; the master does not support reconfiguration while
// queries are in flight.
func (m *Master) Configure(cfg Config) {
	m.cfg = cfg
	m.jit = newJitter()
	m.resultCache, m.admission = nil, nil
	if cfg.ResultCacheSize > 0 {
		m.resultCache = serve.NewLRU[string, cachedResult](cfg.ResultCacheSize)
	}
	if cfg.MaxInflightQueries > 0 {
		m.admission = serve.NewAdmission(cfg.MaxInflightQueries, maxQueuedPerClient)
	}
}

// InvalidateCaches empties the result cache. It must be called whenever the
// layout or the partition placement changes other than through
// ApplyMigration, whose cutover sweeps the cache itself: every cached result
// is derived from both.
func (m *Master) InvalidateCaches() {
	if m.resultCache != nil {
		m.resultCache.Invalidate()
	}
	m.m.cacheInvalidations.Inc()
}

// workerLink returns (dialing lazily) the persistent link to worker i. Only a
// dial builds a context of the call deadline by (zero: ctx's alone).
func (m *Master) workerLink(ctx context.Context, by time.Time, i int) (*muxLink, error) {
	m.mu.Lock()
	if i < len(m.links) && m.links[i] != nil {
		l := m.links[i]
		m.mu.Unlock()
		return l, nil
	}
	m.mu.Unlock()
	addr := m.fleet.Load().addrs[i]
	if addr == "" {
		return nil, fmt.Errorf("dist: worker %d has no address (not joined yet)", i)
	}
	if !by.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, by)
		defer cancel()
	}
	l, err := dialMuxLink(ctx, addr, connsPerWorker)
	if err != nil {
		return nil, fmt.Errorf("dist: dialing worker %d (%s): %w", i, addr, err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for i >= len(m.links) {
		m.links = append(m.links, nil)
	}
	if m.links[i] != nil {
		// A concurrent caller won the dial race; keep theirs.
		l.close()
		return m.links[i], nil
	}
	if m.closed {
		l.close()
		return nil, errors.New("dist: master is closed")
	}
	m.links[i] = l
	return l, nil
}

// dropWorkerLink discards worker i's link so the next call redials. Every
// call in flight on a dying link fails together; dead names the link the
// caller saw fail, so the stragglers do not close the replacement a faster
// sibling already dialed.
func (m *Master) dropWorkerLink(i int, dead *muxLink) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if dead != nil && i < len(m.links) && m.links[i] == dead {
		dead.close()
		m.links[i] = nil
	}
}

// linkFailed classifies a failed worker call under the serve.Mux.Call error
// contract and drops the link when — and only when — a connection of it is
// down. A request that never reached the wire (serve.NotSentError: the
// deadline expired while queued) and a call abandoned by the caller's own
// context (done is the query's or migration's context: a sibling RPC failed,
// the client hung up, the deadline passed) both leave the multiplexed link
// healthy: the late response is discarded by sequence number, and closing the
// link would fail every other query pipelined on it. Anything else drops the
// link and counts a redial: a serve.ClosedError, an I/O or decode failure, a
// failed dial (l is nil), or the per-call timeout firing while the caller is
// still live — the worker has stopped answering on that link. An expiry at
// the query's own deadline is the context's, never the call's (serve.Mux.Call).
func (m *Master) linkFailed(done context.Context, w int, l *muxLink, err error) {
	switch {
	case serve.IsNotSent(err):
		m.m.cleanExpiries.Inc()
	case done.Err() != nil && errors.Is(err, done.Err()):
		// Abandoned by its own caller; nothing is wrong with the link.
	default:
		m.dropWorkerLink(w, l)
		m.m.redials.Inc()
	}
}

// errWorkerUnhealthy is returned when a worker's breaker short-circuits the
// call without touching the network.
type errWorkerUnhealthy struct{ w int }

func (e errWorkerUnhealthy) Error() string {
	return fmt.Sprintf("dist: worker %d unhealthy (breaker open)", e.w)
}

// callWorker performs one scan RPC against worker w under the retry policy:
// per-call deadlines, breaker admission, exponential backoff with seeded
// jitter between attempts, and a per-query retry budget. Scans are read-only
// and idempotent, so resends are safe.
//
// A failure that leaves the multiplexed link healthy — the request never
// reached the wire, or the query's own context abandoned the call — keeps the
// link and, being no fault of the worker, counts neither a redial nor a
// breaker failure (linkFailed).
//
// When the query is traced (tq non-nil), every attempt records an "rpc" span
// under parent — so retries and failovers are visible as sibling spans — and
// the worker's trace fragment attaches under the succeeding attempt's span.
func (m *Master) callWorker(ctx context.Context, w int, req ScanRequest, resp *ScanResponse, budget *atomic.Int64, tq *trace.T, parent trace.SpanRef, round int) error {
	req.Seq = m.seq.Add(1)
	req.TraceID = tq.ID()
	f := m.fleet.Load()
	qd, _ := ctx.Deadline()
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		ok, probe := f.breakers[w].allow(m.cfg.Retry, m.clock)
		if !ok {
			m.m.breakerShorts.Inc()
			return errWorkerUnhealthy{w}
		}
		if probe {
			m.m.breakerProbes.Inc()
		}
		rpc := tq.Start("rpc", parent)
		rpc.Int(trace.KeyWorker, int64(w))
		rpc.Int(trace.KeyPartitions, int64(len(req.IDs)))
		if attempt > 0 {
			rpc.Int(trace.KeyAttempt, int64(attempt))
		}
		if round > 0 {
			rpc.Int(trace.KeyFailoverRound, int64(round))
		}
		by := m.callDeadline(qd, time.Now())
		if !by.IsZero() {
			req.Deadline = by.UnixNano()
		}
		l, err := m.workerLink(ctx, by, w)
		if err == nil {
			*resp = ScanResponse{} // a failed prior attempt may have partially decoded
			sp := f.call(w).Start()
			err = l.scan(ctx, &req, resp)
			sp.End()
		}
		if err == nil {
			if tq != nil && len(resp.Spans) > 0 {
				tq.Attach(rpc, resp.Spans)
			}
			rpc.End()
			f.breakers[w].success()
			return nil
		}
		rpc.Int(trace.KeyError, 1)
		rpc.End()
		m.linkFailed(ctx, w, l, err)
		if ctx.Err() != nil {
			// The query itself is done (deadline or sibling cancellation):
			// the worker is not to blame, and retrying is pointless.
			m.m.failures.Inc()
			return err
		}
		if f.breakers[w].failure(m.cfg.Retry, m.clock) {
			m.m.breakerTrips.Inc()
		}
		if attempt+1 >= maxAttempts {
			m.m.failures.Inc()
			return err
		}
		if budget.Add(-1) < 0 {
			m.m.failures.Inc()
			return fmt.Errorf("dist: query retry budget exhausted: %w", err)
		}
		m.m.retries.Inc()
		if serr := sleepCtx(ctx, m.clock, m.jit.backoff(attempt)); serr != nil {
			m.m.failures.Inc()
			return serr
		}
	}
}

// callDeadline is one call attempt's bound: now + CallTimeout, or the query's
// own deadline qd when that comes first (zero: none). A value, not a context:
// it rides the request to the worker and into the serve.Mux waiter.
func (m *Master) callDeadline(qd, now time.Time) time.Time {
	if by := now.Add(m.cfg.CallTimeout); m.cfg.CallTimeout > 0 && (qd.IsZero() || by.Before(qd)) {
		return by
	}
	return qd
}

// sleepCtx waits d on c or until ctx is done, returning ctx's error in the
// latter case.
func sleepCtx(ctx context.Context, c clock, d time.Duration) error {
	woke := make(chan struct{})
	defer c.AfterFunc(d, func() { close(woke) }).Stop()
	select {
	case <-woke:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Query executes one SQL statement with the background context (the
// configured QueryTimeout still applies): admission → caches → rewrite →
// route → scatter per worker → gather, with retry and failover. A query on
// the master never answers partially; a networked client opts in per request
// (QueryRequest.AllowPartial).
func (m *Master) Query(sql string) (QueryResponse, error) {
	return m.QueryContext(context.Background(), sql)
}

// QueryContext is Query under a caller-supplied context: the deadline (or
// the configured QueryTimeout when the context has none) is threaded through
// every scatter RPC down to the workers' scan loops, and a cancellation
// interrupts in-flight calls.
func (m *Master) QueryContext(ctx context.Context, sql string) (QueryResponse, error) {
	return m.query(ctx, time.Time{}, localClient, sql, false, false)
}

// Ready reports whether the master can serve queries at full fidelity:
// started, not closed, and not mid-migration (a cutover in progress means
// routing is double-resolving while placements change underneath — load
// balancers should prefer settled masters). The string explains a false.
func (m *Master) Ready() (bool, string) {
	m.mu.Lock()
	started, closed := m.listener != nil, m.closed
	m.mu.Unlock()
	if closed {
		return false, "master is closed"
	}
	if !started {
		return false, "master is not serving yet"
	}
	if m.mig.Load() != nil {
		return false, "layout migration in progress"
	}
	return true, "ok"
}

// localClient is the admission fair-queue key for queries issued directly
// on the master rather than through a network session.
const localClient = "local"

// cachedResult is one result-cache entry: the answer, the plan it was
// answered from and the layout epoch it was answered under. The plan is what
// the cutover sweep translates (sweepCaches) and what the drift observer sees
// on a hit. The epoch guards the cache across migration cutovers: an entry a
// query racing the cutover Puts after the sweep ran carries the outgoing
// epoch, and an entry of any epoch but the served one reads as a miss.
type cachedResult struct {
	resp  QueryResponse
	plan  router.Plan
	epoch uint64
}

// planFor resolves sql under double-routing (DESIGN.md §13). With a
// migration in progress, the query is routed against the next layout and
// served from it iff every partition the plan touches has already been
// installed on its workers; otherwise — and always outside migrations — the
// current view serves it. next reports which side was chosen (next-view
// results must not populate the result cache: they belong to the epoch that
// has not cut over yet).
//
// The returned view is pinned (inflight already counts this query) and the
// caller must unpin it when the query is done; on error nothing is pinned.
// Pinning here, before the plan is even routed, is what lets a cutover retire
// the old epoch safely: the pin is taken and then the view re-checked, so
// either the cutover's drain loop sees the pin, or the query sees the cutover
// and pins the view that replaced it. A view retired between "load" and "pin"
// would otherwise fail the scatter with "worker has no layout epoch N".
func (m *Master) planFor(sql string) (v *routeView, plan router.Plan, next bool, err error) {
	if mg := m.mig.Load(); mg != nil {
		mg.view.inflight.Add(1)
		// Still the migration in progress, or the view it cut over to.
		if m.mig.Load() == mg || m.view.Load() == mg.view {
			plan, err := mg.view.router.RouteSQL(sql)
			if err == nil && mg.planReady(plan) {
				return mg.view, plan, true, nil
			}
		}
		mg.view.unpin()
	}
	for {
		v = m.view.Load()
		v.inflight.Add(1)
		if m.view.Load() == v {
			break
		}
		v.unpin() // lost a race with a cutover: pin its successor
	}
	plan, err = v.router.RouteSQL(sql)
	if err != nil {
		v.unpin()
	}
	return v, plan, false, err
}

// query is the serving path shared by direct calls and network sessions. It
// wraps serveQuery (cache → admission → route → scatter) with the
// observability epilogue of DESIGN.md §14: the sampled trace's root span and
// Finish, the slow-query line and the cost record — one trace.CostRecord,
// filled as the query runs, is both — and, for explain, the assembled span
// tree on the response. explain forces a trace even when sampling is off.
func (m *Master) query(ctx context.Context, deadline time.Time, client, sql string, allowPartial, explain bool) (QueryResponse, error) {
	var start time.Time
	if m.m.queries != nil {
		start = time.Now()
		m.m.inflight.Add(1)
		defer m.m.inflight.Add(-1)
		defer func() { m.m.latency.Observe(float64(time.Since(start))) }()
		m.m.queries.Inc()
	}
	tq := m.traceFor(explain)
	costLog := m.costLog.Load()
	slow := m.cfg.SlowQuery
	if tq == nil && costLog == nil && slow <= 0 {
		// The fully untraced fast path: beyond two atomic loads it pays only
		// the nil checks compiled into the instrumentation points.
		return m.serveQuery(ctx, deadline, client, sql, allowPartial, nil, trace.SpanRef{}, nil)
	}
	qstart := time.Now()
	root := tq.Start("query", trace.SpanRef{})
	rec := trace.CostRecord{TraceID: tq.ID(), UnixNs: qstart.UnixNano(), SQL: sql, Workers: m.NumWorkers()}
	resp, err := m.serveQuery(ctx, deadline, client, sql, allowPartial, tq, root, &rec)
	rec.TotalNs = int64(time.Since(qstart))
	rec.Ranges, rec.PartitionsTouched, rec.Partial = resp.SubQueries, resp.PartitionsScanned, resp.Partial
	rec.Rows, rec.BytesRead, rec.BytesSkipped = resp.Rows, resp.BytesScanned, resp.BytesSkipped
	if tq != nil {
		root.Int(trace.KeyRows, int64(rec.Rows))
		root.Int(trace.KeyBytesRead, rec.BytesRead)
		root.Int(trace.KeyBytesSkipped, rec.BytesSkipped)
		root.Int(trace.KeyPartitions, int64(rec.PartitionsTouched))
		root.Int(trace.KeyEpoch, int64(rec.Epoch))
		if rec.Cached {
			root.Int(trace.KeyCacheHit, 1)
		}
		if rec.NextView {
			root.Int(trace.KeyNextView, 1)
		}
		if rec.Partial {
			root.Int(trace.KeyPartial, 1)
		}
		if err != nil {
			root.Int(trace.KeyError, 1)
		}
		root.End()
		m.tracer.Load().Finish(tq)
	}
	if slow > 0 && time.Duration(rec.TotalNs) >= slow {
		m.m.slowQueries.Inc()
		errStr := ""
		if err != nil {
			errStr = err.Error()
		}
		// The record's fields are inlined under their cost-log names.
		slog.Warn("paw: slow query", "client", client, "err", errStr, slog.Any("", rec))
	}
	if err == nil {
		costLog.Record(rec)
	}
	if explain && err == nil && tq != nil {
		// Spans ride the response only when the request forced the trace —
		// and only on this return value, never on the cached copy (serveQuery
		// stored `total` before we got here), so untraced responses stay
		// byte-identical whether tracing is on or off.
		resp.TraceID = tq.ID()
		resp.Spans = tq.Spans()
	}
	return resp, err
}

// serveQuery is the serving body: result-cache lookup, admission (keyed by
// client for fair queueing), then route and scatter, caching clean complete
// results on the way out. It fills rec's routing facts and stage costs; tq
// and rec may be nil (untraced fast path) — all instrumentation points
// degrade to nil checks. The query's bound is set only
// once the cache has missed, so a hit starts no timer: deadline when it is
// set (a client request's own), else the configured QueryTimeout when ctx
// carries no deadline.
func (m *Master) serveQuery(ctx context.Context, deadline time.Time, client, sql string, allowPartial bool, tq *trace.T, root trace.SpanRef, rec *trace.CostRecord) (QueryResponse, error) {
	// A cached clean result answers without a slot: serving memory beats
	// re-scattering, and an entry of the served epoch is still valid (the
	// cutover sweep translated it or it was answered since; InvalidateCaches
	// empties the cache on any other layout/placement change).
	if m.resultCache != nil {
		if e, ok := m.resultCache.Get(sql); ok && e.epoch == m.view.Load().epoch {
			m.m.resultHits.Inc()
			if rec != nil {
				rec.Cached, rec.Epoch = true, e.epoch
			}
			// A hit is real demand: the monitor sees its routed shape too.
			m.observe(e.plan, &e.resp, e.epoch, true)
			return e.resp, nil
		}
		m.m.resultMisses.Inc()
	}
	if _, ok := ctx.Deadline(); !deadline.IsZero() || !ok && m.cfg.QueryTimeout > 0 {
		if deadline.IsZero() {
			deadline = time.Now().Add(m.cfg.QueryTimeout)
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	if m.admission != nil {
		asp := tq.Start("admission", root)
		release, err := m.admission.Acquire(ctx, client)
		if err != nil {
			asp.Int(trace.KeyError, 1)
			asp.End()
			if errors.Is(err, serve.ErrOverloaded) {
				m.m.overloads.Inc()
				return QueryResponse{}, fmt.Errorf("dist: query shed: %w", err)
			}
			return QueryResponse{}, err
		}
		asp.End()
		defer release()
	}
	var routeStart time.Time
	if rec != nil {
		routeStart = time.Now()
	}
	rsp := tq.Start("route", root)
	view, plan, next, err := m.planFor(sql)
	if rec != nil {
		rec.RouteNs = int64(time.Since(routeStart))
	}
	if err != nil {
		rsp.Int(trace.KeyError, 1)
		rsp.End()
		return QueryResponse{}, err
	}
	defer view.unpin()
	if m.routedHook != nil {
		m.routedHook()
	}
	if rec != nil {
		rec.Epoch, rec.NextView = view.epoch, next
		rec.LayoutPartitions = len(view.router.Layout().Parts)
		if len(plan.Ranges) > 0 {
			rec.Dims = plan.Ranges[0].Range.Dims()
		}
	}
	rsp.Int(trace.KeyRanges, int64(len(plan.Ranges)))
	rsp.Int(trace.KeyPartitions, int64(plan.NumScans()))
	if next {
		rsp.Int(trace.KeyNextView, 1)
	}
	rsp.End()
	var total QueryResponse
	total.SubQueries = len(plan.Ranges)
	budget := new(atomic.Int64)
	budget.Store(queryRetryBudget)
	var scatterStart time.Time
	if rec != nil {
		scatterStart = time.Now()
	}
	for i, rp := range plan.Ranges {
		ssp := tq.Start("scatter", root)
		ssp.Int(trace.KeyRange, int64(i))
		ssp.Int(trace.KeyPartitions, int64(len(rp.Parts)))
		failed, cause, err := m.scatterRange(ctx, view, rp.Range, rp.Parts, budget, allowPartial, &total, tq, ssp)
		if err != nil {
			ssp.Int(trace.KeyError, 1)
			ssp.End()
			if errors.Is(err, context.DeadlineExceeded) {
				m.m.deadlines.Inc()
			}
			if rec != nil {
				rec.ScatterNs = int64(time.Since(scatterStart))
			}
			return QueryResponse{}, err
		}
		if len(failed) > 0 {
			if !allowPartial {
				if cause == nil {
					// No worker ever failed — the plan names partitions the
					// placement does not hold (a stale plan racing a layout
					// change). Silent empty success would be a wrong answer.
					cause = fmt.Errorf("dist: partition(s) %v have no placed replica under epoch %d", failed, view.epoch)
				}
				ssp.Int(trace.KeyError, 1)
				ssp.End()
				if rec != nil {
					rec.ScatterNs = int64(time.Since(scatterStart))
				}
				return QueryResponse{}, cause
			}
			total.FailedPartitions = append(total.FailedPartitions, failed...)
		}
		total.PartitionsScanned += len(rp.Parts) - len(failed)
		ssp.End()
	}
	if rec != nil {
		rec.ScatterNs = int64(time.Since(scatterStart))
	}
	if len(total.FailedPartitions) > 0 {
		sort.Slice(total.FailedPartitions, func(i, j int) bool {
			return total.FailedPartitions[i] < total.FailedPartitions[j]
		})
		total.Partial = true
		m.m.partials.Inc()
	}
	if m.resultCache != nil && !total.Partial && !next && m.view.Load() == view {
		// Next-view results and results that raced a cutover are not
		// cached: their telemetry belongs to an epoch that is not (or no
		// longer) the served one, and the cutover sweep has already run. (A
		// cutover between this check and the Put leaves an entry of the
		// outgoing epoch, which reads as a miss.)
		m.resultCache.Put(sql, cachedResult{resp: total, plan: plan, epoch: view.epoch})
	}
	m.observe(plan, &total, view.epoch, false)
	return total, nil
}

// pickWorker chooses the next worker to scan partition id on: the first
// untried replica that is not membership-dead and whose breaker admits
// calls, then the first untried non-dead replica (it will consume the
// breaker probe or fail fast), then the first untried replica at all — a
// dead mark is a strong hint, not a verdict, so a replica set whose every
// member is marked dead is still tried rather than silently failed. -1 when
// the replica set is exhausted.
func (m *Master) pickWorker(v *routeView, id layout.ID, tried map[int]bool) int {
	f := m.fleet.Load()
	first, firstUp := -1, -1
	for _, w := range v.replicas[id] {
		if tried[w] {
			continue
		}
		if first < 0 {
			first = w
		}
		if f.isDown(w) {
			continue
		}
		if firstUp < 0 {
			firstUp = w
		}
		if f.breakers[w].healthy(m.cfg.Retry, m.clock) {
			return w
		}
	}
	if firstUp >= 0 {
		return firstUp
	}
	return first
}

// scatterRange fans one range query out to the workers covering its
// partitions and gathers the results, failing partitions over to their
// replicas in rounds. It returns the partitions no replica could serve
// together with the first underlying failure; err is non-nil only for a hard
// abort (context done). In-flight sibling RPCs are cancelled as soon as the
// range is known to fail, and the scatter always drains its goroutines
// before returning.
func (m *Master) scatterRange(ctx context.Context, v *routeView, q geom.Box, ids []layout.ID, budget *atomic.Int64, allowPartial bool, total *QueryResponse, tq *trace.T, span trace.SpanRef) (failed []layout.ID, cause, err error) {
	// sctx cancels a failed call's siblings: only a round that fans out has any.
	sctx, cancel := ctx, context.CancelFunc(nil)
	pending := ids
	var tried map[layout.ID]map[int]bool // lazily allocated: only on failure
	for round := 0; len(pending) > 0; round++ {
		byWorker := make(map[int][]layout.ID)
		for _, id := range pending {
			w := m.pickWorker(v, id, tried[id])
			if w < 0 {
				failed = append(failed, id)
				continue
			}
			if round > 0 {
				m.m.failovers.Inc()
			}
			byWorker[w] = append(byWorker[w], id)
		}
		if len(failed) > 0 && !allowPartial {
			// Some partition's replicas are exhausted (only possible after a
			// failure round, so cause is set) and the query cannot go
			// partial: don't spend another scatter on a lost range.
			for _, bids := range byWorker {
				failed = append(failed, bids...)
			}
			return failed, cause, nil
		}
		if len(byWorker) == 0 {
			break
		}
		if round == 0 {
			m.m.fanout.Observe(float64(len(byWorker)))
		}
		if len(byWorker) > 1 && cancel == nil {
			sctx, cancel = context.WithCancel(ctx)
			defer cancel()
		}
		type result struct {
			w    int
			ids  []layout.ID
			resp ScanResponse
			err  error
		}
		results := make(chan result, len(byWorker))
		call := func(w int, bids []layout.ID, round int) {
			var r result
			r.w, r.ids = w, bids
			r.err = m.callWorker(sctx, w, ScanRequest{Query: q, IDs: bids, Epoch: v.epoch}, &r.resp, budget, tq, span, round)
			results <- r
		}
		for w, bids := range byWorker {
			if len(byWorker) > 1 {
				go call(w, bids, round)
				continue
			}
			// The only batch of the round has no sibling to overlap with or
			// to be cancelled for: it runs on this goroutine. (Never the last
			// of several — the collector below, which cancels siblings on a
			// non-retryable failure, could not run until that call returned.)
			call(w, bids, round)
		}
		var next []layout.ID
		fatal := false
		for range byWorker {
			r := <-results
			if r.err == nil && r.resp.Err == "" {
				total.Rows += r.resp.Rows
				total.BytesScanned += r.resp.BytesRead
				total.BytesSkipped += r.resp.BytesSkipped
				continue
			}
			ferr := r.err
			if ferr == nil {
				ferr = errors.New(r.resp.Err)
			}
			if cause == nil {
				cause = fmt.Errorf("dist: worker %d scanning %d partition(s): %w", r.w, len(r.ids), ferr)
			}
			retryable := false
			for _, id := range r.ids {
				if tried == nil {
					tried = make(map[layout.ID]map[int]bool)
				}
				if tried[id] == nil {
					tried[id] = make(map[int]bool)
				}
				tried[id][r.w] = true
				next = append(next, id)
				if m.pickWorker(v, id, tried[id]) >= 0 {
					retryable = true
				}
			}
			if !retryable && !allowPartial {
				// No replica left for at least one partition and the query
				// cannot go partial: cancel the in-flight siblings; keep
				// draining.
				fatal = true
				if cancel != nil {
					cancel()
				}
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if fatal {
			return append(failed, next...), cause, nil
		}
		pending = next
	}
	return failed, cause, nil
}

// Start serves the client protocol on addr and returns the bound address.
func (m *Master) Start(addr string) (string, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return "", errors.New("dist: master is closed")
	}
	if m.listener != nil {
		m.mu.Unlock()
		return "", errors.New("dist: master already started")
	}
	m.mu.Unlock()
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		l.Close()
		return "", errors.New("dist: master is closed")
	}
	m.listener = l
	m.wg.Add(1)
	if ms := m.member.Load(); ms != nil {
		ms.stopTicks = periodic(m.clock, memberTick, m.membershipTick)
	}
	m.mu.Unlock()
	go func() {
		defer m.wg.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			m.wg.Add(1)
			go func() {
				defer m.wg.Done()
				m.serveClient(c)
			}()
		}
	}()
	return l.Addr().String(), nil
}

// handleQueryRequest runs one client query on the serving path; failures
// become response-carried errors with their typed code.
func (m *Master) handleQueryRequest(client string, req QueryRequest) QueryResponse {
	var deadline time.Time
	if req.TimeoutMillis > 0 {
		deadline = time.Now().Add(time.Duration(req.TimeoutMillis) * time.Millisecond)
	}
	resp, err := m.query(context.Background(), deadline, client, req.SQL, req.AllowPartial, req.Trace)
	if err != nil {
		resp = QueryResponse{Err: err.Error(), ErrCode: errCodeFor(err)}
	}
	return resp
}

// serveClient runs one client session: query and membership frames pipeline
// over it, up to clientPipeline requests executing at once on the session's
// handler goroutines, with responses returning in completion order, so one
// expensive query never blocks the cheap ones behind it on the same
// connection. A peer that does not open with the protocol preamble, or whose
// stream breaks mid-frame, is dropped and counted.
func (m *Master) serveClient(c net.Conn) {
	defer c.Close()
	client := c.RemoteAddr().String()
	err := serve.ServeConn(c, clientPipeline, func(typ byte, payload []byte) (byte, serve.Marshaler, error) {
		switch typ {
		case msgQueryReq:
			var req QueryRequest
			if err := req.UnmarshalWire(payload); err != nil {
				return 0, nil, err
			}
			resp := m.handleQueryRequest(client, req)
			return msgQueryResp, &resp, nil
		case msgMemberReq:
			var req MemberRequest
			if err := req.UnmarshalWire(payload); err != nil {
				return 0, nil, err
			}
			resp := m.handleMember(&req)
			return msgMemberResp, &resp, nil
		default:
			return 0, nil, fmt.Errorf("dist: unexpected client frame type %d", typ)
		}
	})
	if err != nil && !errors.Is(err, io.EOF) && !m.isClosed() {
		m.m.clientsDropped.Inc()
	}
}

func (m *Master) isClosed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// Close shuts down the client listener and worker links. Close is
// idempotent; it waits for in-flight client sessions to finish.
func (m *Master) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	l := m.listener
	for i, w := range m.links {
		if w != nil {
			w.close()
			m.links[i] = nil
		}
	}
	m.mu.Unlock()
	if ms := m.member.Load(); ms != nil {
		ms.cancel()
		ms.stopTicks()
	}
	var err error
	if l != nil {
		err = l.Close()
	}
	m.wg.Wait()
	return err
}
