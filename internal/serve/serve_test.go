package serve

import (
	"context"
	"errors"
	"testing"
	"time"
)

// holders returns the number of currently admitted holders.
func (a *Admission) holders() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inflight
}

// waitQueued returns once n requests wait in a's client queues.
func waitQueued(a *Admission, n int) {
	for {
		a.mu.Lock()
		queued := 0
		for _, q := range a.queues {
			queued += len(q)
		}
		a.mu.Unlock()
		if queued >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	l := NewLRU[string, int](2)
	l.Put("a", 1)
	l.Put("b", 2)
	if v, ok := l.Get("a"); !ok || v != 1 {
		t.Fatalf("a: %d %v", v, ok)
	}
	l.Put("c", 3) // evicts b: a was refreshed by the Get
	if _, ok := l.Get("b"); ok {
		t.Fatal("b must be evicted")
	}
	for k, want := range map[string]int{"a": 1, "c": 3} {
		if v, ok := l.Get(k); !ok || v != want {
			t.Fatalf("%s: %d %v", k, v, ok)
		}
	}
	if l.Len() != 2 {
		t.Fatalf("len=%d", l.Len())
	}
}

func TestLRUUpdateExistingKey(t *testing.T) {
	l := NewLRU[string, int](2)
	l.Put("a", 1)
	l.Put("a", 10)
	if l.Len() != 1 {
		t.Fatalf("len=%d, want 1 (update, not insert)", l.Len())
	}
	if v, _ := l.Get("a"); v != 10 {
		t.Fatalf("a=%d", v)
	}
}

func TestLRUInvalidateEmpties(t *testing.T) {
	l := NewLRU[string, int](2)
	l.Put("a", 1)
	l.Put("b", 2)
	l.Invalidate()
	if l.Len() != 0 {
		t.Fatalf("len after invalidate = %d", l.Len())
	}
	if _, ok := l.Get("a"); ok {
		t.Fatal("a must be gone")
	}
	// The emptied cache keeps its bound and its recency list.
	for _, k := range []string{"c", "d", "e"} {
		l.Put(k, 0)
	}
	if _, ok := l.Get("c"); ok || l.Len() != 2 {
		t.Fatalf("after invalidate: c cached %v, len %d; want c evicted, len 2", ok, l.Len())
	}
}

func TestAdmissionFastPath(t *testing.T) {
	a := NewAdmission(2, 1)
	r1, err := a.Acquire(context.Background(), "c1")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.Acquire(context.Background(), "c2")
	if err != nil {
		t.Fatal(err)
	}
	if got := a.holders(); got != 2 {
		t.Fatalf("inflight=%d", got)
	}
	r1()
	r2()
	if got := a.holders(); got != 0 {
		t.Fatalf("inflight after release=%d", got)
	}
}

func TestAdmissionShedsWhenQueueFull(t *testing.T) {
	a := NewAdmission(1, 1)
	release, err := a.Acquire(context.Background(), "hog")
	if err != nil {
		t.Fatal(err)
	}
	// One waiter fits in the hog's queue...
	waiterDone := make(chan error, 1)
	go func() {
		r, err := a.Acquire(context.Background(), "hog")
		if err == nil {
			r()
		}
		waiterDone <- err
	}()
	waitQueued(a, 1)
	// ...the second is shed with the typed overload error.
	if _, err := a.Acquire(context.Background(), "hog"); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err=%v, want ErrOverloaded", err)
	}
	release()
	if err := <-waiterDone; err != nil {
		t.Fatalf("queued waiter: %v", err)
	}
}

// TestAdmissionFairRoundRobin: with one slot and two clients queueing — one
// flooding, one sending a single request — the single request is granted
// within two turns, not after the flood drains.
func TestAdmissionFairRoundRobin(t *testing.T) {
	a := NewAdmission(1, 16)
	hold, err := a.Acquire(context.Background(), "warm")
	if err != nil {
		t.Fatal(err)
	}

	type grant struct {
		client string
		rel    func()
	}
	grants := make(chan grant, 16)
	enqueue := func(client string, n int) {
		for i := 0; i < n; i++ {
			go func() {
				r, err := a.Acquire(context.Background(), client)
				if err != nil {
					t.Errorf("%s: %v", client, err)
					return
				}
				grants <- grant{client, r}
			}()
			// Order the flood's arrival before moving on so the queue
			// state is deterministic.
			waitQueued(a, i+1)
		}
	}
	enqueue("flood", 8)
	// The single light client arrives last.
	light := make(chan func(), 1)
	go func() {
		r, err := a.Acquire(context.Background(), "light")
		if err != nil {
			t.Errorf("light: %v", err)
			return
		}
		light <- r
	}()
	waitQueued(a, 9)

	hold() // start draining: grants alternate flood, light, flood, ...
	var order []string
	for len(order) < 3 {
		select {
		case g := <-grants:
			order = append(order, g.client)
			g.rel()
		case r := <-light:
			order = append(order, "light")
			r()
		case <-time.After(2 * time.Second):
			t.Fatalf("stalled after %v", order)
		}
	}
	// The light client must appear within the first two grants (round-robin),
	// not behind the 8-deep flood.
	if order[0] != "light" && order[1] != "light" {
		t.Fatalf("light client starved: grant order %v", order)
	}
	// Drain the rest: 9 waiters total, 3 granted above.
	for i := 0; i < 6; i++ {
		select {
		case g := <-grants:
			g.rel()
		case <-time.After(2 * time.Second):
			t.Fatal("flood did not drain")
		}
	}
}

func TestAdmissionCancelWhileQueued(t *testing.T) {
	a := NewAdmission(1, 4)
	release, err := a.Acquire(context.Background(), "hog")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := a.Acquire(ctx, "other")
		errc <- err
	}()
	waitQueued(a, 1)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want Canceled", err)
	}
	// The cancelled waiter must not leak its queue slot: a release must not
	// grant to it, and the tier must stay usable.
	release()
	r, err := a.Acquire(context.Background(), "next")
	if err != nil {
		t.Fatalf("after cancelled waiter: %v", err)
	}
	r()
	if got := a.holders(); got != 0 {
		t.Fatalf("inflight=%d", got)
	}
}
