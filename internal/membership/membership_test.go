package membership

import (
	"testing"
	"time"
)

var t0 = time.Unix(1_000_000, 0)

func at(d time.Duration) time.Time { return t0.Add(d) }

func newTestTracker(n int) *Tracker {
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = addrString(i)
	}
	return NewTracker(Config{SuspectAfter: time.Second, DeadAfter: 3 * time.Second}, addrs, t0)
}

func addrString(i int) string { return "127.0.0.1:" + string(rune('a'+i)) }

func stateOf(t *testing.T, tr *Tracker, i int) State {
	t.Helper()
	m, ok := tr.View().Member(i)
	if !ok {
		t.Fatalf("member %d missing", i)
	}
	return m.State
}

func TestTrackerSuspectDeadStateMachine(t *testing.T) {
	tr := newTestTracker(2)
	// Worker 1 beats; worker 0 goes silent.
	if _, err := tr.Beat(1, at(900*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	trs := tr.Tick(at(1500 * time.Millisecond))
	if len(trs) != 1 || trs[0].Index != 0 || trs[0].To != Suspect {
		t.Fatalf("want worker 0 -> suspect, got %+v", trs)
	}
	if got := stateOf(t, tr, 1); got != Alive {
		t.Fatalf("worker 1 should stay alive, is %s", got)
	}
	// A beat revives the suspect.
	rev, err := tr.Beat(0, at(1600*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if rev.From != Suspect || rev.To != Alive {
		t.Fatalf("want suspect->alive revive, got %+v", rev)
	}
	// Silence past DeadAfter kills it (passing through suspect); worker 1
	// keeps beating and must stay alive.
	if _, err := tr.Beat(1, at(2900*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	tr.Tick(at(3 * time.Second))
	if _, err := tr.Beat(1, at(4900*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	trs = tr.Tick(at(5 * time.Second))
	if len(trs) != 1 || trs[0].To != Dead {
		t.Fatalf("want worker 0 -> dead, got %+v", trs)
	}
	if got := stateOf(t, tr, 0); got != Dead {
		t.Fatalf("worker 0 should be dead, is %s", got)
	}
	// Ticks are idempotent once settled.
	if _, err := tr.Beat(1, at(5900*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if trs := tr.Tick(at(6 * time.Second)); len(trs) != 0 {
		t.Fatalf("settled tick transitioned: %+v", trs)
	}
}

func TestTrackerJoinLeaveRejoin(t *testing.T) {
	tr := newTestTracker(2)
	m, trans, err := tr.Join(-1, "127.0.0.1:9999", at(0))
	if err != nil {
		t.Fatal(err)
	}
	if m.Index != 2 || trans.To != Alive {
		t.Fatalf("fresh join: got member %+v transition %+v", m, trans)
	}
	// Graceful leave: Draining, then Left. A beat while draining is legal.
	if _, err := tr.Leave(2, at(time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Beat(2, at(1100*time.Millisecond)); err != nil {
		t.Fatalf("beat while draining: %v", err)
	}
	if got := stateOf(t, tr, 2); got != Draining {
		t.Fatalf("beat must not revive draining, is %s", got)
	}
	if _, err := tr.Depart(2, at(2*time.Second)); err != nil {
		t.Fatal(err)
	}
	// A departed slot rejects beats but accepts a re-join, even from a new
	// address.
	if _, err := tr.Beat(2, at(3*time.Second)); err == nil {
		t.Fatal("beat from departed member must fail")
	}
	m2, _, err := tr.Join(-1, "127.0.0.1:7777", at(4*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if m2.Index != 3 {
		t.Fatalf("unknown address joins a fresh slot, got index %d", m2.Index)
	}
	m3, _, err := tr.Join(2, "127.0.0.1:8888", at(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if m3.Index != 2 || m3.State != Alive || m3.Addr != "127.0.0.1:8888" {
		t.Fatalf("explicit re-join of departed slot: %+v", m3)
	}
	// Stealing a live slot from a different address is refused.
	if _, _, err := tr.Join(0, "127.0.0.1:6666", at(6*time.Second)); err == nil {
		t.Fatal("join must not steal a live slot")
	}
}

func TestTrackerViewVersionAndSets(t *testing.T) {
	tr := newTestTracker(3)
	v1 := tr.View()
	tr.Tick(at(1500 * time.Millisecond)) // everyone suspect
	v2 := tr.View()
	if v2.Version == v1.Version {
		t.Fatal("version must advance on transitions")
	}
	if got := v2.Placeable(); len(got) != 3 {
		t.Fatalf("suspect members stay placeable, got %v", got)
	}
	if got := v2.inStates(Alive); len(got) != 0 {
		t.Fatalf("no member is alive, got %v", got)
	}
	tr.Tick(at(10 * time.Second)) // everyone dead
	v3 := tr.View()
	if got := v3.Placeable(); len(got) != 0 {
		t.Fatalf("dead members are not placeable, got %v", got)
	}
	if got := v3.Reachable(); len(got) != 0 {
		t.Fatalf("dead members are not reachable, got %v", got)
	}
}
