package dist

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"paw/internal/blockstore"
	"paw/internal/core"
	"paw/internal/dataset"
	"paw/internal/geom"
	"paw/internal/layout"
	"paw/internal/membership"
	"paw/internal/obs"
	"paw/internal/placement"
	"paw/internal/sqlrew"
	"paw/internal/workload"
)

// membershipView snapshots the current membership (ok=false when membership
// is not enabled).
func (m *Master) membershipView() (membership.View, bool) {
	ms := m.member.Load()
	if ms == nil {
		return membership.View{}, false
	}
	return ms.tracker.View(), true
}

// Elastic membership tests: a cluster seeded with the consistent-hash ring
// placement (so a later join's movement is the ring's minimal delta, not a
// full reshuffle), a master with membership enabled, and helpers to join
// fresh empty workers and assert query exactness against the dataset oracle
// at every step.

type elasticCluster struct {
	data   *dataset.Dataset
	layout *layout.Layout
	store  *blockstore.Store
	rep    placement.Replicated

	workers  map[int]*Worker
	replicas int
	master   *Master
	reg      *obs.Registry
	addr     string // master client port
	// clock is the master's: its ticks and timers run as the test moves it.
	clock *fakeClock
}

// startElasticCluster builds a ring-placed cluster of nWorkers with
// membership enabled on the master, on a clock the test moves, and its
// client port listening.
func startElasticCluster(t *testing.T, nWorkers, replicas, rows int, mcfg MembershipConfig, cfg Config) *elasticCluster {
	t.Helper()
	data := dataset.Uniform(rows, 2, 11)
	rowIdx := make([]int, data.NumRows())
	for i := range rowIdx {
		rowIdx[i] = i
	}
	hist := workload.Uniform(data.Domain(), workload.Defaults(10, 5))
	l := core.Build(data, rowIdx, data.Domain(), hist, core.Params{MinRows: rows / 16})
	store := blockstore.Materialize(l, data, blockstore.Config{GroupRows: 512})

	ids := make([]layout.ID, len(l.Parts))
	workerIdx := make([]int, nWorkers)
	for i, p := range l.Parts {
		ids[i] = p.ID
	}
	for w := range workerIdx {
		workerIdx[w] = w
	}
	rep := membership.RingPlacement(ids, workerIdx, replicas)
	f := startFleet(t, l, data.Names(), store, rep, nWorkers, nil, nil)
	tc := &elasticCluster{data: data, layout: l, store: store, rep: rep,
		workers: make(map[int]*Worker), replicas: replicas, master: f.Master, reg: obs.New(), clock: newFakeClock()}
	for w, wk := range f.Workers {
		tc.workers[w] = wk
	}
	t.Cleanup(func() { // the master first, then the fleet and its joiners
		f.Master.Close()
		for _, wk := range tc.workers {
			wk.Close()
		}
	})
	f.Master.Configure(cfg)
	f.Master.SetMetrics(tc.reg)
	f.Master.clock = tc.clock
	if err := f.Master.EnableMembership(mcfg); err != nil {
		t.Fatal(err)
	}
	var err error
	if tc.addr, err = f.Master.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	return tc
}

// joinFreshWorker starts an empty worker (no store, no assignment — exactly
// what a scale-out node looks like before its first rebalance) and registers
// it through the in-process membership handler. Returns the assigned slot.
func (tc *elasticCluster) joinFreshWorker(t *testing.T) (int, *Worker) {
	t.Helper()
	wk := NewWorker(nil, nil) // a joiner starts empty, outside the fleet
	a, err := wk.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp := tc.master.handleMember(&MemberRequest{
		Op: MemberJoin, Index: -1, Addr: a, Sum: membership.Checksum(nil),
	})
	if resp.Err != "" {
		wk.Close()
		t.Fatalf("fresh join: %s", resp.Err)
	}
	tc.workers[resp.Index] = wk
	return resp.Index, wk
}

// pass moves the clock d forward one member tick at a time; after each tick,
// every worker in beating sends a heartbeat through the master's handler.
func (tc *elasticCluster) pass(t *testing.T, d time.Duration, beating ...int) {
	t.Helper()
	for end := tc.clock.Now().Add(d); tc.clock.Now().Before(end); {
		tc.clock.Advance(memberTick)
		for _, w := range beating {
			if resp := tc.master.handleMember(&MemberRequest{Op: MemberBeat, Index: w}); resp.Err != "" {
				t.Fatalf("beat of worker %d: %s", w, resp.Err)
			}
		}
	}
}

// settle waits for the automatic rebalance a tick may have started: the tick
// hands the round rebalanceMu, which it holds until its outcome is recorded.
func (tc *elasticCluster) settle() {
	ms := tc.master.member.Load()
	ms.rebalanceMu.Lock()
	ms.rebalanceMu.Unlock()
}

// checkExact asserts three probe queries return exactly the dataset oracle's
// counts.
func (tc *elasticCluster) checkExact(t *testing.T) {
	t.Helper()
	for _, b := range tc.probes() {
		sql := sqlrew.BoxSQL(tc.data.Names(), b)
		resp, err := tc.master.Query(sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		if want := tc.data.CountInBox(b, nil); resp.Rows != want {
			t.Fatalf("%q: %d rows, want %d", sql, resp.Rows, want)
		}
	}
}

func (tc *elasticCluster) probes() []geom.Box {
	dom := tc.data.Domain()
	w0, h0 := dom.Hi[0]-dom.Lo[0], dom.Hi[1]-dom.Lo[1]
	return []geom.Box{
		dom,
		{Lo: geom.Point{dom.Lo[0], dom.Lo[1]}, Hi: geom.Point{dom.Lo[0] + 0.4*w0, dom.Lo[1] + 0.6*h0}},
		{Lo: geom.Point{dom.Lo[0] + 0.5*w0, dom.Lo[1] + 0.3*h0}, Hi: geom.Point{dom.Lo[0] + 0.9*w0, dom.Lo[1] + 0.8*h0}},
	}
}

func elasticMemberConfig() MembershipConfig {
	return MembershipConfig{
		Detector: membership.Config{SuspectAfter: 5 * time.Second, DeadAfter: 10 * time.Second},
	}
}

// TestMembershipJoinBeatLeave drives the full worker lifecycle — join
// handshake, heartbeats, graceful leave with drain — through the Heartbeater
// over the master's client port.
func TestMembershipJoinBeatLeave(t *testing.T) {
	tc := startElasticCluster(t, 3, 2, 4000, elasticMemberConfig(), fastMigConfig())
	tc.checkExact(t)
	before := tc.master.NumWorkers()

	wk := NewWorker(nil, nil) // a joiner starts empty, outside the fleet
	waddr, err := wk.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer wk.Close()
	hb := NewHeartbeater(tc.addr)
	defer hb.Close()
	ctx := context.Background()
	jresp, err := hb.Join(ctx, -1, waddr, membership.Checksum(nil))
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	if jresp.Index != before {
		t.Fatalf("fresh join got slot %d, want %d", jresp.Index, before)
	}
	if got := tc.master.NumWorkers(); got != before+1 {
		t.Fatalf("fleet size = %d after join, want %d", got, before+1)
	}
	tc.workers[jresp.Index] = wk
	if _, err := hb.Beat(ctx); err != nil {
		t.Fatalf("beat: %v", err)
	}
	view, ok := tc.master.membershipView()
	if !ok {
		t.Fatal("membership must be enabled")
	}
	if mem, ok := view.Member(jresp.Index); !ok || mem.State != membership.Alive {
		t.Fatalf("joined worker state = %v, want Alive", mem.State)
	}

	// Move data onto the joiner, then leave gracefully: the drain must
	// pull everything back off before the call returns.
	if _, err := tc.master.Rebalance(ctx); err != nil {
		t.Fatalf("rebalance after join: %v", err)
	}
	if got := len(membership.HostedIDs(tc.master.Placement(), jresp.Index)); got == 0 {
		t.Fatal("rebalance must place partitions on the joiner")
	}
	tc.checkExact(t)
	if _, err := hb.Leave(ctx); err != nil {
		t.Fatalf("leave: %v", err)
	}
	if got := len(membership.HostedIDs(tc.master.Placement(), jresp.Index)); got != 0 {
		t.Fatalf("left worker still hosts %d partitions", got)
	}
	wk.Close() // safe now: nothing routes to it
	tc.checkExact(t)

	snap := tc.reg.Snapshot()
	if got := snap.Counter(MetricMemberJoins); got < 1 {
		t.Errorf("member joins = %d, want >= 1", got)
	}
	if got := snap.Counter(MetricMemberLeaves); got < 1 {
		t.Errorf("member leaves = %d, want >= 1", got)
	}
}

// TestMembershipJoinChecksumMismatch: a worker whose hosted-partition digest
// disagrees with the master's placement must be rejected with an error that
// names both digests — not silently admitted to drop rows on every scan.
func TestMembershipJoinChecksumMismatch(t *testing.T) {
	tc := startElasticCluster(t, 3, 2, 3000, elasticMemberConfig(), fastMigConfig())
	f := tc.master.fleet.Load()
	resp := tc.master.handleMember(&MemberRequest{
		Op: MemberJoin, Index: 0, Addr: f.addrs[0], Sum: 0xdeadbeef,
	})
	if resp.Err == "" {
		t.Fatal("mismatched checksum must reject the join")
	}
	if !strings.Contains(resp.Err, "digest") || !strings.Contains(resp.Err, fmt.Sprintf("%016x", uint64(0xdeadbeef))) {
		t.Errorf("rejection must name the digests, got: %s", resp.Err)
	}
	if got := tc.reg.Snapshot().Counter(MetricMemberJoinRejects); got != 1 {
		t.Errorf("join rejects = %d, want 1", got)
	}
	// The correct digest for the same slot is accepted.
	sum := membership.Checksum(membership.HostedIDs(tc.master.Placement(), 0))
	if resp := tc.master.handleMember(&MemberRequest{Op: MemberJoin, Index: 0, Addr: f.addrs[0], Sum: sum}); resp.Err != "" {
		t.Fatalf("matching checksum rejected: %s", resp.Err)
	}
	tc.checkExact(t)
}

// TestHeartbeaterRefusalIsTyped: a join the master executed and refused —
// membership off, a digest mismatch — carries ErrRefused, so a join loop can
// stop at once; a join that never reached a master does not, so it retries.
func TestHeartbeaterRefusalIsTyped(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	static := startCluster(t, 2, DefaultConfig(), nil) // no EnableMembership
	hb := NewHeartbeater(static.maddr)
	defer hb.Close()
	if _, err := hb.Join(ctx, -1, "127.0.0.1:1", membership.Checksum(nil)); !errors.Is(err, ErrRefused) {
		t.Fatalf("join against a master without membership: err=%v, want ErrRefused", err)
	}

	tc := startElasticCluster(t, 3, 2, 3000, elasticMemberConfig(), fastMigConfig())
	hb2 := NewHeartbeater(tc.addr)
	defer hb2.Close()
	_, err := hb2.Join(ctx, 0, tc.master.fleet.Load().addrs[0], 0xdeadbeef)
	if !errors.Is(err, ErrRefused) || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("mismatched digest: err=%v, want ErrRefused naming the digests", err)
	}

	l, lerr := net.Listen("tcp", "127.0.0.1:0")
	if lerr != nil {
		t.Fatal(lerr)
	}
	dead := l.Addr().String()
	l.Close()
	hb3 := NewHeartbeater(dead)
	defer hb3.Close()
	if _, err := hb3.Join(ctx, -1, "127.0.0.1:1", membership.Checksum(nil)); err == nil || errors.Is(err, ErrRefused) {
		t.Fatalf("join against a closed port: err=%v, want a transport error", err)
	}
}

// TestMembershipSuspectDeadTick drives the failure detector on the master's
// clock: a silent worker goes Suspect (still placeable, still queried) and
// then Dead (deprioritised on the scatter path), and a beat revives it.
func TestMembershipSuspectDeadTick(t *testing.T) {
	tc := startElasticCluster(t, 3, 2, 3000, elasticMemberConfig(), fastMigConfig())
	m := tc.master

	// Workers 0 and 1 keep beating; worker 2 goes silent.
	tc.pass(t, 6*time.Second, 0, 1)
	view, _ := m.membershipView()
	if mem, _ := view.Member(2); mem.State != membership.Suspect {
		t.Fatalf("silent worker state = %v at 6s, want Suspect", mem.State)
	}
	if m.fleet.Load().down[2].Load() {
		t.Fatal("a Suspect worker must not be marked down (hysteresis)")
	}
	tc.checkExact(t) // suspect worker still serves

	tc.pass(t, 5*time.Second, 0, 1)
	view, _ = m.membershipView()
	if mem, _ := view.Member(2); mem.State != membership.Dead {
		t.Fatalf("silent worker state = %v at 11s, want Dead", mem.State)
	}
	if !m.fleet.Load().down[2].Load() {
		t.Fatal("a Dead worker must be marked down")
	}
	// Replication degree 2: every partition still has a live replica, so
	// queries stay exact with the dead mark steering the scatter away.
	tc.checkExact(t)

	snap := tc.reg.Snapshot()
	if got := snap.Gauge(MetricMembersDead); got != 1 {
		t.Errorf("dead gauge = %d, want 1", got)
	}
	if got := snap.Gauge(MetricMembersAlive); got != 2 {
		t.Errorf("alive gauge = %d, want 2", got)
	}

	// A heartbeat through the real handler revives the worker and clears
	// the down mark.
	if resp := m.handleMember(&MemberRequest{Op: MemberBeat, Index: 2}); resp.Err != "" {
		t.Fatalf("revival beat: %s", resp.Err)
	}
	view, _ = m.membershipView()
	if mem, _ := view.Member(2); mem.State != membership.Alive {
		t.Fatalf("revived worker state = %v, want Alive", mem.State)
	}
	if m.fleet.Load().down[2].Load() {
		t.Fatal("a revived worker must not stay down")
	}
	tc.checkExact(t)
}

// TestMembershipNotEnabled: member ops against a plain master fail with a
// clear error instead of panicking or hanging.
func TestMembershipNotEnabled(t *testing.T) {
	tc := startChaosCluster(t, 1, 1, nil, fastChaosConfig())
	resp := tc.master.handleMember(&MemberRequest{Op: MemberBeat, Index: 0})
	if !strings.Contains(resp.Err, "not enabled") {
		t.Fatalf("want a membership-not-enabled error, got %q", resp.Err)
	}
	if _, ok := tc.master.membershipView(); ok {
		t.Fatal("membershipView must report disabled")
	}
	if _, err := tc.master.Rebalance(context.Background()); err == nil {
		t.Fatal("Rebalance without membership must error")
	}
}

// TestMembershipLoopsNoGoroutineLeak: the master's ticks and the worker's
// beats must both stop cleanly — membership adds no background goroutines
// that outlive Close.
func TestMembershipLoopsNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	data := dataset.Uniform(1000, 2, 11)
	rowIdx := make([]int, data.NumRows())
	for i := range rowIdx {
		rowIdx[i] = i
	}
	hist := workload.Uniform(data.Domain(), workload.Defaults(4, 3))
	l := core.Build(data, rowIdx, data.Domain(), hist, core.Params{MinRows: 200})
	store := blockstore.Materialize(l, data, blockstore.Config{GroupRows: 512})
	ids := make([]layout.ID, len(l.Parts))
	for i, p := range l.Parts {
		ids[i] = p.ID
	}
	rep := membership.RingPlacement(ids, []int{0}, 1)
	f := startFleet(t, l, data.Names(), store, rep, 1, nil, nil)
	m, waddr := f.Master, f.Addrs[0]
	m.Configure(fastMigConfig())
	clk := newFakeClock()
	m.clock = clk
	if err := m.EnableMembership(elasticMemberConfig()); err != nil {
		t.Fatal(err)
	}
	maddr, err := m.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hb := NewHeartbeater(maddr)
	hb.clock = clk
	if _, err := hb.Join(context.Background(), 0, waddr,
		membership.Checksum(membership.HostedIDs(rep, 0))); err != nil {
		t.Fatal(err)
	}
	hb.Start()
	clk.Advance(12 * memberTick) // past SuspectAfter: only the beats keep worker 0 Alive
	if view, _ := m.membershipView(); view.Members[0].State != membership.Alive {
		t.Fatalf("worker 0 is %v after beating over the wire, want Alive", view.Members[0].State)
	}

	hb.Close()
	f.Close()
	checkNoLeak(t, base)
}
