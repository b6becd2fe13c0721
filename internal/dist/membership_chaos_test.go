package dist

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"paw/internal/layout"
	"paw/internal/membership"
	"paw/internal/sqlrew"
)

// Membership chaos scenarios (`make chaos`): worker crashes at the worst
// moments of the elastic lifecycle — mid-rebalance, right after a join —
// plus the flapping scenario. The invariant everywhere: the master answers
// every successful query exactly, and a failed rebalance leaves the old
// placement fully serving with no partial cutover.

// TestChaosRebalanceWorkerCrash: the joiner dies after registering but
// before its payload installs land. The rebalance must abort cleanly — old
// epoch serving, no worker holding any piece of the next epoch — and a later
// round (after the detector declares the joiner dead) converges without it.
func TestChaosRebalanceWorkerCrash(t *testing.T) {
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			tc := startElasticCluster(t, 3, 1, 3000, elasticMemberConfig(), fastChaosConfig())
			tc.checkExact(t)
			idx, wk := tc.joinFreshWorker(t)
			wk.Close() // crash between the handshake and the first install

			if _, err := tc.master.Rebalance(context.Background()); err == nil {
				t.Fatal("rebalance must abort when an install target is down")
			}
			if got := tc.master.Epoch(); got != 0 {
				t.Fatalf("epoch = %d after abort, want 0 (no partial cutover)", got)
			}
			if got := tc.reg.Snapshot().Counter(MetricMigrationsAborted); got != 1 {
				t.Errorf("aborted migrations = %d, want 1", got)
			}
			for w, worker := range tc.workers {
				if w == idx {
					continue
				}
				for _, e := range worker.epochs() {
					if e != 0 {
						t.Errorf("worker %d holds epoch %d after the abort", w, e)
					}
				}
			}
			tc.checkExact(t)

			// The detector declares the joiner dead; the next round excludes
			// it and converges back to the surviving set — a no-op here, since
			// nothing ever moved.
			ms := tc.master.member.Load()
			now := time.Now()
			for w := 0; w < 3; w++ {
				if _, err := ms.tracker.Beat(w, now.Add(11*time.Second)); err != nil {
					t.Fatal(err)
				}
			}
			tc.master.MembershipTick(now.Add(12 * time.Second))
			view, _ := tc.master.membershipView()
			if mem, _ := view.Member(idx); mem.State != membership.Dead {
				t.Fatalf("crashed joiner state = %v, want Dead", mem.State)
			}
			report, err := tc.master.Rebalance(context.Background())
			if err != nil {
				t.Fatalf("rebalance after the joiner died: %v", err)
			}
			if report.MovedPartitions != 0 || report.Epoch != 0 {
				t.Errorf("post-death round moved %d copies to epoch %d, want a no-op at epoch 0",
					report.MovedPartitions, report.Epoch)
			}
			tc.checkExact(t)
		})
	}
}

// TestChaosRebalanceLostPartition: both holders of some partitions crash and
// are declared dead. The master holds no partition data, so a rebalance has
// nowhere to ship those partitions from: it aborts before any install with
// ErrPartitionLost naming each of them, and the placement stays as it was —
// partial queries report them failed. A holder that comes back without its
// files is reachable but refuses the fetch, which is an ordinary error. Once
// a holder rejoins its slot with its store, the next round converges.
func TestChaosRebalanceLostPartition(t *testing.T) {
	tc := startElasticCluster(t, 3, 2, 3000, elasticMemberConfig(), fastChaosConfig())
	tc.checkExact(t)
	const a, b, c = 0, 1, 2
	var lost []layout.ID
	for _, p := range tc.layout.Parts {
		if ws := tc.rep[p.ID]; !slices.Contains(ws, c) {
			lost = append(lost, p.ID)
		}
	}
	if len(lost) == 0 {
		t.Fatal("fixture: no partition lives on workers 0 and 1 alone")
	}
	ms := tc.master.member.Load()
	now := time.Now()
	// declareDead beats worker c at `at` and ticks there, so every other
	// silent slot goes Dead.
	declareDead := func(at time.Time, dead ...int) {
		t.Helper()
		if _, err := ms.tracker.Beat(c, at); err != nil {
			t.Fatal(err)
		}
		tc.master.MembershipTick(at)
		view, _ := tc.master.membershipView()
		for _, w := range dead {
			if mem, _ := view.Member(w); mem.State != membership.Dead {
				t.Fatalf("worker %d state = %v, want Dead", w, mem.State)
			}
		}
	}
	// rejoin registers wk in slot w under the checksum the placement expects
	// there.
	rejoin := func(w int, wk *Worker) {
		t.Helper()
		addr, err := wk.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		tc.workers[w] = wk
		resp := tc.master.handleMember(&MemberRequest{Op: MemberJoin, Index: w, Addr: addr,
			Sum: membership.Checksum(membership.HostedIDs(tc.master.Placement(), w))})
		if resp.Err != "" {
			t.Fatalf("rejoin of slot %d: %s", w, resp.Err)
		}
	}

	tc.workers[a].Close()
	tc.workers[b].Close()
	declareDead(now.Add(11*time.Second), a, b)
	_, err := tc.master.Rebalance(context.Background())
	if !errors.Is(err, ErrPartitionLost) {
		t.Fatalf("rebalance with every holder dead: %v, want ErrPartitionLost", err)
	}
	if want := fmt.Sprintf("partitions %v", lost); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name %s", err, want)
	}
	if got := tc.master.Epoch(); got != 0 {
		t.Fatalf("epoch = %d after the abort, want 0", got)
	}
	if got := tc.reg.Snapshot().Counter(MetricMigrationsAborted); got != 0 {
		t.Errorf("aborted migrations = %d, want 0: nothing was installed", got)
	}

	cl, err := DialMux(tc.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetAllowPartial(true)
	resp, err := cl.Query(sqlrew.BoxSQL(tc.data.Names(), tc.data.Domain()))
	if err != nil {
		t.Fatalf("partial-mode query: %v", err)
	}
	failed := slices.Clone(resp.FailedPartitions)
	slices.Sort(failed)
	if !resp.Partial || !slices.Equal(failed, lost) {
		t.Fatalf("partial = %v, failed partitions %v, want %v", resp.Partial, failed, lost)
	}

	// Holder a comes back without its files: it is reachable, so nothing is
	// lost, but it refuses the fetch.
	rejoin(a, NewWorker(nil, nil))
	_, err = tc.master.Rebalance(context.Background())
	if err == nil || errors.Is(err, ErrPartitionLost) {
		t.Fatalf("rebalance from a holder that refuses the fetch: %v, want an error other than ErrPartitionLost", err)
	}
	if got := tc.master.Epoch(); got != 0 {
		t.Fatalf("epoch = %d after the failed fetch, want 0", got)
	}
	tc.workers[a].Close()
	declareDead(now.Add(30*time.Second), a)

	// Holder a restarts with its store and rejoins its slot: the placement
	// did not move, so its checksum matches and the round ships from it.
	rejoin(a, NewWorker(tc.store, membership.HostedIDs(tc.rep, a)))
	report, err := tc.master.Rebalance(context.Background())
	if err != nil {
		t.Fatalf("rebalance after the holder rejoined: %v", err)
	}
	if report.Epoch != 1 || report.MovedPartitions == 0 {
		t.Fatalf("rebalance moved %d copies to epoch %d, want a move to epoch 1", report.MovedPartitions, report.Epoch)
	}
	for _, id := range lost {
		if !slices.Contains(tc.master.Placement()[id], c) {
			t.Errorf("partition %d not copied to worker %d: placement %v", id, c, tc.master.Placement()[id])
		}
	}
	tc.checkExact(t)
	if again, err := tc.master.Rebalance(context.Background()); err != nil || again.Epoch != 1 {
		t.Fatalf("second round: epoch %d, %v; want a no-op at epoch 1", again.Epoch, err)
	}
}

// TestChaosAutoRebalanceWaitsForViewChange: after an automatic round aborts
// with ErrPartitionLost, ticks past the rebalance cooldown on an unchanged
// membership view make no new attempt and log no new warning; a holder
// rejoining its slot changes the view, and the next tick's round converges.
func TestChaosAutoRebalanceWaitsForViewChange(t *testing.T) {
	tc := startElasticCluster(t, 3, 2, 3000, elasticMemberConfig(), fastChaosConfig())
	const a, b, c = 0, 1, 2
	var warnings atomic.Int64
	prev := slog.Default()
	slog.SetDefault(slog.New(countHandler{msg: "auto-rebalance failed", n: &warnings}))
	defer slog.SetDefault(prev)

	ms := tc.master.member.Load()
	start := time.Now()
	tc.workers[a].Close()
	tc.workers[b].Close()
	if _, err := ms.tracker.Beat(c, start.Add(11*time.Second)); err != nil {
		t.Fatal(err)
	}
	tc.master.MembershipTick(start.Add(11 * time.Second)) // a and b go Dead
	// tick runs the auto path past the cooldown since the last round, which
	// Rebalance stamps with the wall clock, checks that it started a round
	// exactly when want, and waits for that round to end.
	tick := func(want bool) {
		t.Helper()
		ms.mu.Lock()
		last := ms.lastRebalance
		ms.mu.Unlock()
		tc.master.maybeAutoRebalance(ms, time.Now().Add(rebalanceCooldown+time.Second))
		started := func() bool {
			ms.mu.Lock()
			defer ms.mu.Unlock()
			return !ms.lastRebalance.Equal(last)
		}
		deadline := time.Now().Add(50 * time.Millisecond)
		if want {
			deadline = time.Now().Add(5 * time.Second)
		}
		for !started() && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if got := started(); got != want {
			t.Fatalf("tick started a round: %v, want %v", got, want)
		}
		ms.rebalanceMu.Lock()
		ms.rebalanceMu.Unlock()
	}
	waitWarnings := func(want int64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for warnings.Load() < want && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if got := warnings.Load(); got != want {
			t.Fatalf("%d auto-rebalance warnings, want %d", got, want)
		}
	}

	tick(true) // partitions sit on dead workers
	waitWarnings(1)
	for i := 0; i < 3; i++ {
		tick(false) // the view is unchanged
	}
	waitWarnings(1)

	wk := NewWorker(tc.store, membership.HostedIDs(tc.rep, a))
	addr, err := wk.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tc.workers[a] = wk
	if resp := tc.master.handleMember(&MemberRequest{Op: MemberJoin, Index: a, Addr: addr,
		Sum: membership.Checksum(membership.HostedIDs(tc.master.Placement(), a))}); resp.Err != "" {
		t.Fatalf("rejoin of slot %d: %s", a, resp.Err)
	}
	tick(true) // a holder rejoined
	waitWarnings(1)
	if got := tc.master.Epoch(); got != 1 {
		t.Fatalf("epoch = %d after the round that followed the rejoin, want 1", got)
	}
	tc.checkExact(t)
}

// countHandler is a slog.Handler that counts the records carrying msg.
type countHandler struct {
	msg string
	n   *atomic.Int64
}

func (h countHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h countHandler) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h countHandler) WithGroup(string) slog.Handler            { return h }
func (h countHandler) Handle(_ context.Context, r slog.Record) error {
	if r.Message == h.msg {
		h.n.Add(1)
	}
	return nil
}

// TestChaosJoinWorkerCrash: a worker crashes immediately after its join
// handshake, before any data moved. Queries must never notice; the failure
// detector buries the slot and the cluster stays converged.
func TestChaosJoinWorkerCrash(t *testing.T) {
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			tc := startElasticCluster(t, 2, 2, 3000, elasticMemberConfig(), fastChaosConfig())
			idx, wk := tc.joinFreshWorker(t)
			wk.Close()
			tc.checkExact(t) // the dead joiner hosts nothing; nothing routes to it

			ms := tc.master.member.Load()
			now := time.Now()
			for w := 0; w < 2; w++ {
				if _, err := ms.tracker.Beat(w, now.Add(11*time.Second)); err != nil {
					t.Fatal(err)
				}
			}
			tc.master.MembershipTick(now.Add(12 * time.Second))
			view, _ := tc.master.membershipView()
			if mem, _ := view.Member(idx); mem.State != membership.Dead {
				t.Fatalf("crashed joiner state = %v, want Dead", mem.State)
			}
			if got := tc.master.Epoch(); got != 0 {
				t.Fatalf("epoch = %d, want 0 (nothing should have migrated)", got)
			}
			tc.checkExact(t)
		})
	}
}

// TestChaosMembershipFlappingNoThrash: a worker flapping between Alive and
// Suspect (beats arriving just past the suspect threshold, never the dead
// one) must trigger zero rebalances and zero epoch bumps — Suspect members
// keep their placement, so the trigger condition never fires.
func TestChaosMembershipFlappingNoThrash(t *testing.T) {
	mcfg := elasticMemberConfig()
	mcfg.AutoRebalance = true
	tc := startElasticCluster(t, 3, 2, 3000, mcfg, fastMigConfig())
	ms := tc.master.member.Load()
	now := time.Now()

	vt := now
	for round := 0; round < 5; round++ {
		// Workers 0 and 1 beat on time; worker 2's beat lands after the
		// suspect threshold but well before the dead one. Every tick is past
		// the rebalance cooldown, so only the trigger condition holds one
		// back.
		vt = vt.Add(6 * time.Second)
		for w := 0; w < 2; w++ {
			if _, err := ms.tracker.Beat(w, vt); err != nil {
				t.Fatal(err)
			}
		}
		tc.master.MembershipTick(vt)
		view, _ := tc.master.membershipView()
		if mem, _ := view.Member(2); mem.State != membership.Suspect {
			t.Fatalf("round %d: flapper state = %v, want Suspect", round, mem.State)
		}
		if _, err := ms.tracker.Beat(2, vt); err != nil { // ...and it comes back
			t.Fatal(err)
		}
		tc.master.MembershipTick(vt)
		tc.checkExact(t)
	}
	time.Sleep(20 * time.Millisecond) // absorb any stray auto-rebalance goroutine
	if got := tc.reg.Snapshot().Counter(MetricRebalances); got != 0 {
		t.Errorf("flapping triggered %d rebalances, want 0", got)
	}
	if got := tc.master.Epoch(); got != 0 {
		t.Errorf("flapping moved the epoch to %d, want 0", got)
	}
}

// FuzzMembershipDifferential fuzzes the elastic lifecycle itself: a seeded
// sequence of joins, graceful leaves, crashes, detector ticks and rebalances
// against a live ring-placed cluster, with a probe query after every op.
// Individual membership ops may legitimately fail (a drain with a dead
// target, a rebalance onto a crashed joiner) — the differential invariant is
// that every query the master ANSWERS is byte-identical to the static
// dataset oracle, no matter where in the churn it landed.
func FuzzMembershipDifferential(f *testing.F) {
	f.Add(int64(1), []byte{0, 4, 5, 1, 4})
	f.Add(int64(2), []byte{0, 4, 2, 3, 4, 5})
	f.Add(int64(3), []byte{0, 0, 4, 2, 3, 4, 1, 4})
	f.Add(int64(7), []byte{2, 3, 4, 0, 4, 5, 5})

	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) == 0 || len(ops) > 12 {
			t.Skip("op budget")
		}
		mcfg := elasticMemberConfig()
		tc := startElasticCluster(t, 2, 2, 1500, mcfg, fastChaosConfig())
		ms := tc.master.member.Load()
		rng := rand.New(rand.NewSource(seed))
		vt := time.Now()
		crashed := map[int]bool{}

		liveMembers := func() []int {
			view, _ := tc.master.membershipView()
			var out []int
			for _, w := range view.Placeable() {
				if !crashed[w] {
					out = append(out, w)
				}
			}
			return out
		}
		probe := func() {
			b := tc.probes()[rng.Intn(3)]
			resp, err := tc.master.Query(sqlrew.BoxSQL(tc.data.Names(), b))
			if err != nil || resp.Partial {
				return // a failure is allowed mid-churn; a wrong answer is not
			}
			if want := tc.data.CountInBox(b, nil); resp.Rows != want {
				t.Fatalf("query answered %d rows, oracle says %d", resp.Rows, want)
			}
		}

		for _, op := range ops {
			switch op % 6 {
			case 0: // join a fresh worker (bounded fleet)
				if tc.master.NumWorkers() >= 6 {
					break
				}
				wk := NewWorker(nil, nil) // a joiner starts empty, outside the fleet
				a, err := wk.Start("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				resp := tc.master.handleMember(&MemberRequest{Op: MemberJoin, Index: -1, Addr: a, Sum: membership.Checksum(nil)})
				if resp.Err != "" {
					wk.Close()
					break
				}
				tc.workers[resp.Index] = wk
			case 1: // graceful leave of a random live member (may fail; that's fine)
				live := liveMembers()
				if len(live) < 2 {
					break
				}
				tc.master.handleMember(&MemberRequest{Op: MemberLeave, Index: live[rng.Intn(len(live))]})
			case 2: // crash a random live worker
				live := liveMembers()
				if len(live) < 2 {
					break
				}
				v := live[rng.Intn(len(live))]
				crashed[v] = true
				tc.workers[v].Close()
			case 3: // detector tick: live members beat, crashed ones go Dead
				vt = vt.Add(mcfg.Detector.DeadAfter + time.Second)
				for _, w := range liveMembers() {
					ms.tracker.Beat(w, vt)
				}
				tc.master.MembershipTick(vt)
			case 4: // rebalance; failures must not corrupt
				tc.master.Rebalance(context.Background())
			case 5: // extra probe pressure
				probe()
			}
			probe()
		}
		// Settle: declare crashed workers dead and converge, then the whole
		// probe set must answer exactly.
		vt = vt.Add(mcfg.Detector.DeadAfter + time.Second)
		for _, w := range liveMembers() {
			ms.tracker.Beat(w, vt)
		}
		tc.master.MembershipTick(vt)
		if _, err := tc.master.Rebalance(context.Background()); err == nil {
			tc.checkExact(t)
		}
	})
}
