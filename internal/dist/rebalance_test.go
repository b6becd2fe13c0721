package dist

import (
	"bytes"
	"context"
	"errors"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"paw/internal/layout"
	"paw/internal/membership"
	"paw/internal/sqlrew"
)

// TestLostErrorBounded: a rebalance that finds 237 partitions with no
// reachable holder — what one dead worker of two left on a 430-partition
// fleet — says so in one short line, the count and the first 8 IDs
// ascending, and still wraps ErrPartitionLost.
func TestLostErrorBounded(t *testing.T) {
	lost := make([]layout.ID, 237)
	for i := range lost {
		lost[i] = layout.ID(3 * (len(lost) - i))
	}
	err := lostError(lost)
	if !errors.Is(err, ErrPartitionLost) {
		t.Fatalf("%v does not wrap ErrPartitionLost", err)
	}
	if want := "237 partitions [3 6 9 12 15 18 21 24 …]"; !strings.HasSuffix(err.Error(), want) {
		t.Fatalf("error %q does not end in %q", err, want)
	}
	if n := len(err.Error()); n > 160 {
		t.Fatalf("error is %d bytes long", n)
	}
	if err, want := lostError([]layout.ID{9, 4}), "2 partitions [4 9]"; !strings.HasSuffix(err.Error(), want) {
		t.Fatalf("error %q does not end in %q", err, want)
	}
}

// Rebalance tests: the minimal-movement property (a join moves roughly
// 1/(N+1) of the copies, never a reshuffle), exactness of every query served
// during and after the move, and the drain-timeout accounting. The cluster
// is ring-placed from the start so the ring delta is the true minimum.

// TestRebalanceJoinMovementBound: joining one fresh worker must ship close
// to the consistent-hash ideal — P·R/(N+1) copies — and stay exact
// throughout, with queries hammering the master concurrently with the move.
func TestRebalanceJoinMovementBound(t *testing.T) {
	const nWorkers, replicas = 3, 2
	tc := startElasticCluster(t, nWorkers, replicas, 6000, elasticMemberConfig(), fastMigConfig())
	tc.checkExact(t)

	// Query load concurrent with the whole join+rebalance: every response
	// must be exact regardless of where the cutover lands.
	var stop atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			for _, b := range tc.probes() {
				resp, err := tc.master.Query(sqlrew.BoxSQL(tc.data.Names(), b))
				if err != nil {
					select {
					case errc <- err:
					default:
					}
					return
				}
				if want := tc.data.CountInBox(b, nil); resp.Rows != want {
					select {
					case errc <- context.DeadlineExceeded:
					default:
					}
					t.Errorf("concurrent query: %d rows, want %d", resp.Rows, want)
					return
				}
			}
		}
	}()

	idx, _ := tc.joinFreshWorker(t)
	before := tc.master.Placement()
	report, err := tc.master.Rebalance(context.Background())
	stop.Store(true)
	wg.Wait()
	select {
	case qerr := <-errc:
		t.Fatalf("concurrent query failed: %v", qerr)
	default:
	}
	if err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	if report.Epoch != 1 {
		t.Fatalf("epoch = %d after rebalance, want 1", report.Epoch)
	}
	if got := len(membership.HostedIDs(tc.master.Placement(), idx)); got == 0 {
		t.Fatal("joiner hosts nothing after rebalance")
	}
	tc.checkExact(t)

	// The movement bound, asserted numerically: the ring moves about
	// total/(N+1) copies to the joiner; 2.5x covers vnode skew on small
	// partition counts.
	total := len(tc.layout.Parts) * replicas
	ideal := float64(total) / float64(nWorkers+1)
	bound := int(ideal*2.5) + 1
	if report.MovedPartitions > bound {
		t.Errorf("join moved %d copies, want <= %d (ideal %.1f of %d total, slack 2.5x)",
			report.MovedPartitions, bound, ideal, total)
	}
	if report.MovedPartitions == 0 {
		t.Error("a join must move something")
	}
	// Moved bytes are the payloads shipped — each partition's PAWC encoding
	// once per worker that gained a copy — not its nominal FullRows × row
	// bytes.
	var shipped int64
	moved := 0 // partitions that gained a copy
	for id, now := range tc.master.Placement() {
		gained := 0
		for _, w := range now {
			if !slices.Contains(before[id], w) {
				gained++
			}
		}
		if gained == 0 {
			continue
		}
		moved++
		sp, err := tc.store.Partition(id)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := sp.Table.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		shipped += int64(buf.Len() * gained)
	}
	if report.MovedBytes != shipped || shipped == 0 {
		t.Errorf("moved bytes = %d, want the %d payload bytes shipped", report.MovedBytes, shipped)
	}
	snap := tc.reg.Snapshot()
	if got := snap.Counter(MetricRebalances); got != 1 {
		t.Errorf("rebalances = %d, want 1", got)
	}
	if got := snap.Counter(MetricRebalanceParts); got != int64(report.MovedPartitions) {
		t.Errorf("moved-partitions counter = %d, want %d", got, report.MovedPartitions)
	}
	if got := snap.Counter(MetricRebalanceBytes); got != report.MovedBytes {
		t.Errorf("moved-bytes counter = %d, want %d", got, report.MovedBytes)
	}
	// The migration's own counters read the same tally: a partition that
	// shipped to the joiner is migrated, every other one reused.
	if got := snap.Counter(MetricMigratedPartitions); got != int64(moved) {
		t.Errorf("migrated partitions = %d, want the %d that shipped", got, moved)
	}
	if got, want := snap.Counter(MetricReusedPartitions), int64(len(tc.layout.Parts)-moved); got != want || report.ReusedPartitions != int(want) {
		t.Errorf("reused partitions = %d (report %d), want %d", got, report.ReusedPartitions, want)
	}
	if got := snap.Counter(MetricMigratedBytes); got != shipped {
		t.Errorf("migrated bytes = %d, want %d", got, shipped)
	}

	// A second round is a no-op: the placement already matches the ring, so
	// nothing moves and no epoch burns (no-thrash).
	again, err := tc.master.Rebalance(context.Background())
	if err != nil {
		t.Fatalf("idempotent rebalance: %v", err)
	}
	if again.MovedPartitions != 0 || again.Epoch != 1 {
		t.Errorf("second rebalance moved %d copies to epoch %d, want 0 moves at epoch 1",
			again.MovedPartitions, again.Epoch)
	}
}

// TestRebalanceLeaveDrainsEverything: a graceful leave must pull every copy
// off the departing worker in one round, so the worker can exit without
// stranding data.
func TestRebalanceLeaveDrainsEverything(t *testing.T) {
	tc := startElasticCluster(t, 3, 2, 4000, elasticMemberConfig(), fastMigConfig())
	tc.checkExact(t)
	hostedBefore := len(membership.HostedIDs(tc.master.Placement(), 0))
	if hostedBefore == 0 {
		t.Fatal("fixture: worker 0 must host partitions")
	}

	resp := tc.master.handleMember(&MemberRequest{Op: MemberLeave, Index: 0})
	if resp.Err != "" {
		t.Fatalf("leave: %s", resp.Err)
	}
	if got := len(membership.HostedIDs(tc.master.Placement(), 0)); got != 0 {
		t.Fatalf("left worker still hosts %d partitions (a drain must not leave any behind)", got)
	}
	view, _ := tc.master.membershipView()
	if mem, _ := view.Member(0); mem.State != membership.Left {
		t.Fatalf("worker 0 state = %v, want Left", mem.State)
	}
	tc.workers[0].Close()
	tc.checkExact(t)
	if got := tc.reg.Snapshot().Counter(MetricMemberLeaves); got != 1 {
		t.Errorf("member leaves = %d, want 1", got)
	}
}

// TestRebalanceLeaveAbortedKeepsServing: a graceful leave whose drain cannot
// install (worker 2 crashed, but the detector has not noticed yet) must
// answer the leave with an error, revive the leaver to Alive and leave the
// epoch where it was, so the leaver keeps serving what only it still holds.
func TestRebalanceLeaveAbortedKeepsServing(t *testing.T) {
	tc := startElasticCluster(t, 3, 2, 4000, elasticMemberConfig(), fastChaosConfig())
	tc.checkExact(t)
	onlyLeaver := 0 // partitions whose copies sit on the leaver and the crashed worker
	for _, ws := range tc.rep {
		if slices.Contains(ws, 0) && slices.Contains(ws, 2) {
			onlyLeaver++
		}
	}
	if onlyLeaver == 0 {
		t.Fatal("fixture: no partition lives on workers 0 and 2 alone")
	}
	tc.workers[2].Close()

	resp := tc.master.handleMember(&MemberRequest{Op: MemberLeave, Index: 0})
	if !strings.Contains(resp.Err, "leave aborted") {
		t.Fatalf("leave with an install target down: err %q, want the leave aborted", resp.Err)
	}
	view, _ := tc.master.membershipView()
	if mem, _ := view.Member(0); mem.State != membership.Alive {
		t.Fatalf("worker 0 state = %v after the aborted leave, want Alive", mem.State)
	}
	if tc.master.slot(0).down.Load() {
		t.Fatal("worker 0 marked down after the aborted leave")
	}
	if got := tc.master.Epoch(); got != 0 {
		t.Fatalf("epoch = %d after the aborted leave, want 0", got)
	}
	if got := tc.reg.Snapshot().Counter(MetricMigrationsAborted); got != 1 {
		t.Errorf("aborted migrations = %d, want 1: the drain fails at its installs", got)
	}
	if got := len(membership.HostedIDs(tc.master.Placement(), 0)); got == 0 {
		t.Fatal("worker 0 hosts nothing after the aborted leave")
	}
	// Worker 2 is gone, so these answers need worker 0.
	tc.checkExact(t)
}

// TestRebalanceAutoTriggersOnTick: with AutoRebalance on, a tick after a
// join (placeable member hosting nothing) kicks off the rebalance without
// anyone calling Rebalance, and a converged cluster stops triggering — on
// ticks past the rebalance cooldown, so the cooldown is not what stops it.
func TestRebalanceAutoTriggersOnTick(t *testing.T) {
	mcfg := elasticMemberConfig()
	mcfg.AutoRebalance = true
	tc := startElasticCluster(t, 2, 1, 2000, mcfg, fastMigConfig())
	idx, _ := tc.joinFreshWorker(t)

	tc.clock.Advance(memberTick)
	tc.settle()
	if len(membership.HostedIDs(tc.master.Placement(), idx)) == 0 {
		t.Fatal("the tick after the join started no rebalance onto the joiner")
	}
	tc.checkExact(t)

	// Converged: further ticks — past the cooldown, short of the detector's
	// dead threshold — must not burn epochs.
	epoch := tc.master.Epoch()
	tc.pass(t, 2*(rebalanceCooldown+time.Second), 0, 1, idx)
	tc.settle()
	if got := tc.master.Epoch(); got != epoch {
		t.Errorf("ticks on a converged cluster moved the epoch %d -> %d", epoch, got)
	}
}

// TestRebalanceLeaveDoesNotDialDeparted: once a worker has left and shut
// down, later epoch transitions must not go looking for it — retiring an
// epoch on a departed slot cost a redial and up to a second per transition
// (benchmark/README.md, finding 2). Worker 0 leaves and exits, a bare
// listener takes over its address to count connection attempts, and then
// worker 1 leaves gracefully: that whole leave — drain, cutover, retire —
// must complete without a single dial to worker 0's address.
func TestRebalanceLeaveDoesNotDialDeparted(t *testing.T) {
	tc := startElasticCluster(t, 4, 2, 4000, elasticMemberConfig(), fastMigConfig())
	tc.checkExact(t)
	departed := tc.master.slot(0).link.address()
	if resp := tc.master.handleMember(&MemberRequest{Op: MemberLeave, Index: 0}); resp.Err != "" {
		t.Fatalf("first leave: %s", resp.Err)
	}
	tc.workers[0].Close()

	var ln net.Listener
	waitFor(t, "worker 0's address to be free again", func() bool {
		var err error
		ln, err = net.Listen("tcp", departed)
		return err == nil
	})
	defer ln.Close()
	var dials atomic.Int64
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			dials.Add(1)
			c.Close()
		}
	}()

	redialsBefore := tc.reg.Snapshot().Counter(MetricRedials)
	if resp := tc.master.handleMember(&MemberRequest{Op: MemberLeave, Index: 1}); resp.Err != "" {
		t.Fatalf("second leave: %s", resp.Err)
	}
	tc.workers[1].Close()
	tc.checkExact(t)
	if got := dials.Load(); got != 0 {
		t.Errorf("the second leave dialed the departed worker's address %d time(s)", got)
	}
	if got := tc.reg.Snapshot().Counter(MetricRedials) - redialsBefore; got != 0 {
		t.Errorf("redials during the second leave = %d, want 0", got)
	}
	// The workers that are still members did retire the drained epochs.
	for _, w := range []int{2, 3} {
		if es := tc.workers[w].epochs(); len(es) != 1 || es[0] != tc.master.Epoch() {
			t.Errorf("worker %d serves epochs %v, want only the current epoch %d", w, es, tc.master.Epoch())
		}
	}
}
