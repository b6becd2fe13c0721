package dist

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"paw/internal/geom"
	"paw/internal/layout"
	"paw/internal/sqlrew"
)

// Link-lifetime tests: the master shares one multiplexed link per worker
// among all its queries, so the link may only be dropped when a connection of
// it is actually down — never because one query gave up on one call — and
// both listeners must refuse a peer that does not speak the protocol.

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSiblingCancelKeepsSharedLink replays the failure chain of a query that
// lost its epoch on one worker while its sibling RPC was mid-flight on
// another (benchmark/README.md, finding 3). Worker 0 answers the victim query
// with an error, so scatterRange cancels the victim's RPC on worker 1 — an RPC
// already sent, on the link six other queries have calls in flight on. The
// cancellation is the victim's own business: the link must stay up, no other
// query may see an error, nothing may be redialed, and worker 1's breaker
// must stay closed under the default threshold.
func TestSiblingCancelKeepsSharedLink(t *testing.T) {
	const bystanders = 6
	cfg := fastChaosConfig()
	cfg.Retry.BreakerThreshold = DefaultConfig().Retry.BreakerThreshold
	var (
		armed    atomic.Bool // off while the links are being established
		held0    atomic.Bool
		blocked0 = make(chan struct{}) // worker 0 is inside the victim's first scan
		fail0    = make(chan struct{}) // lets worker 0 run on into the failure
		arrived1 atomic.Int64          // scans that reached worker 1
		release1 = make(chan struct{})
	)
	tc := buildMigFixture(t, 2, nil, cfg, func(w int, _ layout.ID) {
		if !armed.Load() {
			return
		}
		if w == 0 {
			if held0.CompareAndSwap(false, true) {
				close(blocked0)
				<-fail0
			}
			return
		}
		arrived1.Add(1)
		<-release1
	})
	m := tc.master
	names := tc.data.Names()

	// Bystander queries: distinct boxes (so the workers cannot coalesce them)
	// strictly inside the highest-numbered partition, which lives on worker 1.
	last := tc.old.Parts[len(tc.old.Parts)-1]
	if got := tc.rep[last.ID]; len(got) != 1 || got[0] != 1 {
		t.Fatalf("fixture: partition %d is placed on %v, want worker 1 only", last.ID, got)
	}
	mbr := last.Desc.MBR()
	w, h := mbr.Hi[0]-mbr.Lo[0], mbr.Hi[1]-mbr.Lo[1]
	boxes := make([]geom.Box, bystanders)
	for i := range boxes {
		f := 0.05 * float64(i+1)
		boxes[i] = geom.Box{
			Lo: geom.Point{mbr.Lo[0] + f*w, mbr.Lo[1] + f*h},
			Hi: geom.Point{mbr.Hi[0] - f*w, mbr.Hi[1] - f*h},
		}
	}
	// Establish both links first, so every call below shares them.
	if _, err := m.Query(sqlrew.BoxSQL(names, tc.data.Domain())); err != nil {
		t.Fatal(err)
	}
	armed.Store(true)

	type answer struct {
		rows int
		err  error
	}
	answers := make([]answer, bystanders)
	var wg sync.WaitGroup
	for i, b := range boxes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := m.Query(sqlrew.BoxSQL(names, b))
			answers[i] = answer{resp.Rows, err}
		}()
	}
	waitFor(t, "the bystanders' scans to reach worker 1", func() bool { return arrived1.Load() == bystanders })

	// The victim spans every partition: worker 0 scans [p0, p2], worker 1
	// [p1, p3]. Hold worker 0 inside p0, wait until worker 1 has the sibling
	// RPC, then take epoch 0 away from worker 0 so its batch fails at p2.
	victim := make(chan error, 1)
	go func() {
		_, err := m.Query(sqlrew.BoxSQL(names, tc.data.Domain()))
		victim <- err
	}()
	<-blocked0
	waitFor(t, "the victim's sibling scan to reach worker 1", func() bool { return arrived1.Load() == bystanders+1 })
	if resp := tc.workers[0].handleAdmin(AdminRequest{Op: AdminRetire, Epoch: 0}); resp.Err != "" {
		t.Fatal(resp.Err)
	}
	close(fail0)
	if err := <-victim; err == nil || !strings.Contains(err.Error(), "no layout epoch") {
		t.Fatalf("victim query: err=%v, want worker 0's missing-epoch failure", err)
	}

	// Only now may worker 1 answer: the bystanders were in flight on the
	// shared link across the whole cancellation.
	close(release1)
	wg.Wait()
	for i, a := range answers {
		if a.err != nil {
			t.Errorf("bystander %d failed: %v", i, a.err)
		} else if want := tc.data.CountInBox(boxes[i], nil); a.rows != want {
			t.Errorf("bystander %d: %d rows, want %d", i, a.rows, want)
		}
	}
	snap := tc.reg.Snapshot()
	if got := snap.Counter(MetricRedials); got != 0 {
		t.Errorf("redials = %d, want 0 (a cancelled sibling must not cost the shared link)", got)
	}
	if got := snap.Counter(MetricRetries); got != 0 {
		t.Errorf("retries = %d, want 0", got)
	}
	if got := snap.Counter(MetricBreakerTrips); got != 0 {
		t.Errorf("breaker trips = %d, want 0", got)
	}
	if !m.fleet.Load().breakers[1].healthy(m.cfg.Retry, m.clock) {
		t.Error("worker 1's breaker opened")
	}
}

// TestCallTimeoutDropsLink is the other side of the contract: when the
// per-call timeout fires while the query itself is still live, the worker has
// stopped answering on that link, and the link is dropped for a redial.
func TestCallTimeoutDropsLink(t *testing.T) {
	cfg := fastChaosConfig()
	cfg.CallTimeout = 50 * time.Millisecond
	release := make(chan struct{})
	tc := buildMigFixture(t, 1, nil, cfg, func(int, layout.ID) { <-release })
	defer close(release)
	if _, err := tc.master.Query(sqlrew.BoxSQL(tc.data.Names(), tc.data.Domain())); err == nil {
		t.Fatal("a scan that outlasts the call timeout must fail the query")
	}
	// One dropped link per attempt: maxAttempts of them.
	if got := tc.reg.Snapshot().Counter(MetricRedials); got != maxAttempts {
		t.Errorf("redials = %d, want %d", got, maxAttempts)
	}
	tc.master.mu.Lock()
	l := tc.master.links[0]
	tc.master.mu.Unlock()
	if l != nil {
		t.Error("the link that stopped answering is still installed")
	}
}

// TestPeerWithoutPreambleDropped: a connection that does not open with the
// serve.Magic preamble is closed without an answer and counted, on the
// master's client port and on a worker's scan port alike.
func TestPeerWithoutPreambleDropped(t *testing.T) {
	tc := startChaosCluster(t, 1, 1, nil, fastChaosConfig())
	maddr, err := tc.master.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []struct {
		name    string
		addr    string
		dropped func() int64
	}{
		{"master", maddr, func() int64 { return tc.reg.Snapshot().Counter(MetricClientsDropped) }},
		{"worker", tc.addrs[0], func() int64 { return tc.workerRegs[0].Snapshot().Counter(MetricWorkerConnDropped) }},
	} {
		t.Run(target.name, func(t *testing.T) {
			c, err := net.Dial("tcp", target.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
				t.Fatal(err)
			}
			c.SetReadDeadline(time.Now().Add(5 * time.Second))
			if n, err := c.Read(make([]byte, 1)); err == nil {
				t.Fatalf("the server answered %d byte(s) to a peer that sent no preamble", n)
			} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Fatal("the server kept the connection open")
			}
			waitFor(t, "the drop to be counted", func() bool { return target.dropped() == 1 })
		})
	}
	// The listeners still serve protocol speakers.
	cl, err := DialMux(maddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Query(chaosSQL); err != nil {
		t.Fatal(err)
	}
}

// TestQueryDeadlineMidCallKeepsLink: a query whose own deadline expires while
// its RPC is in flight fails with context.DeadlineExceeded and costs nothing
// else. Its call bound (now + CallTimeout) lies past the query's deadline, so
// the expiry belongs to the query's context, not to the connection's timer:
// no redial, no retry, no breaker failure, and the link stays installed.
func TestQueryDeadlineMidCallKeepsLink(t *testing.T) {
	var hold atomic.Bool
	release := make(chan struct{})
	tc := buildMigFixture(t, 1, nil, fastChaosConfig(), func(int, layout.ID) {
		if hold.Load() {
			<-release
		}
	})
	defer close(release)
	sql := sqlrew.BoxSQL(tc.data.Names(), tc.data.Domain())
	if _, err := tc.master.Query(sql); err != nil { // dial the link
		t.Fatal(err)
	}
	tc.master.mu.Lock()
	l := tc.master.links[0]
	tc.master.mu.Unlock()
	hold.Store(true)
	for i := 0; i < 16; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		_, err := tc.master.QueryContext(ctx, sql)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("query %d: err=%v, want context.DeadlineExceeded", i, err)
		}
	}
	snap := tc.reg.Snapshot()
	for _, c := range []string{MetricRedials, MetricRetries, MetricBreakerTrips} {
		if got := snap.Counter(c); got != 0 {
			t.Errorf("%s = %d, want 0", c, got)
		}
	}
	tc.master.mu.Lock()
	now := tc.master.links[0]
	tc.master.mu.Unlock()
	if now != l {
		t.Error("the link was replaced: a query's own expiry was read as a link fault")
	}
}

// TestQueryAllocsSingleWorker bounds what one query answered by one worker
// allocates, master and worker together (they share the process). A query
// carries one deadline: the call bound rides the request and the connection's
// timer, and a lone call gets no sibling-cancel context, so no attempt builds
// a context or a timer of its own. The bound is 33; a per-attempt
// context.WithTimeout and a per-range context.WithCancel cost 44.
func TestQueryAllocsSingleWorker(t *testing.T) {
	const bound = 33
	if raceEnabled {
		t.Skip("sync.Pool sheds scanners under the race detector")
	}
	tc := buildMigFixture(t, 1, nil, fastChaosConfig())
	sql := sqlrew.BoxSQL(tc.data.Names(), tc.data.Domain())
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := tc.master.QueryContext(ctx, sql); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > bound {
		t.Fatalf("a single-worker query allocates %.0f times, want at most %d", allocs, bound)
	}
}
