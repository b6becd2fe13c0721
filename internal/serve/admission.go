package serve

import (
	"context"
	"errors"
	"sync"
)

// ErrOverloaded is the typed overload error: the serving tier is at its
// in-flight bound and the caller's queue is full. Clients should back off;
// the master maps it to a distinguishable wire code instead of a generic
// failure so load shedding is visible as such.
var ErrOverloaded = errors.New("serve: overloaded")

// Admission bounds the number of queries executing concurrently and fair-
// queues the excess per client: when a slot frees, waiting clients are
// served round-robin — one request per client per turn — so a flood from
// one client cannot starve the others. Beyond a bounded per-client queue,
// requests are rejected immediately with ErrOverloaded.
type Admission struct {
	mu          sync.Mutex
	maxInflight int
	maxQueued   int // per client
	inflight    int
	queues      map[string][]chan struct{}
	ring        []string // round-robin order of clients with waiters

	admitted int64
	rejected int64
	waited   int64
}

// NewAdmission returns a controller admitting at most maxInflight concurrent
// holders with at most maxQueuedPerClient waiters per client (minimums 1 and
// 0 respectively).
func NewAdmission(maxInflight, maxQueuedPerClient int) *Admission {
	if maxInflight < 1 {
		maxInflight = 1
	}
	if maxQueuedPerClient < 0 {
		maxQueuedPerClient = 0
	}
	return &Admission{
		maxInflight: maxInflight,
		maxQueued:   maxQueuedPerClient,
		queues:      make(map[string][]chan struct{}),
	}
}

// grantNextLocked hands the caller's slot to the next waiter in round-robin
// client order; it reports whether the slot was transferred.
func (a *Admission) grantNextLocked() bool {
	for len(a.ring) > 0 {
		cl := a.ring[0]
		a.ring = a.ring[1:]
		q := a.queues[cl]
		if len(q) == 0 {
			delete(a.queues, cl) // stale ring entry (waiter cancelled)
			continue
		}
		ch := q[0]
		if len(q) == 1 {
			delete(a.queues, cl)
		} else {
			a.queues[cl] = q[1:]
			a.ring = append(a.ring, cl) // back of the ring: one per turn
		}
		close(ch)
		return true
	}
	return false
}

// release returns a slot: either transferring it to a queued waiter or
// decrementing the in-flight count.
func (a *Admission) release() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.grantNextLocked() {
		a.inflight--
	}
}

// Acquire admits one request for client, blocking in the client's fair
// queue while the tier is saturated. It returns the release function the
// caller must invoke when the request finishes, or ErrOverloaded when the
// client's queue is full, or ctx's error when the wait is abandoned.
func (a *Admission) Acquire(ctx context.Context, client string) (release func(), err error) {
	a.mu.Lock()
	if a.inflight < a.maxInflight && len(a.queues) == 0 {
		a.inflight++
		a.admitted++
		a.mu.Unlock()
		return a.release, nil
	}
	if len(a.queues[client]) >= a.maxQueued {
		a.rejected++
		a.mu.Unlock()
		return nil, ErrOverloaded
	}
	ch := make(chan struct{})
	q := a.queues[client]
	a.queues[client] = append(q, ch)
	if len(q) == 0 {
		a.ring = append(a.ring, client)
	}
	a.waited++
	a.mu.Unlock()

	select {
	case <-ch:
		a.mu.Lock()
		a.admitted++
		a.mu.Unlock()
		return a.release, nil
	case <-ctx.Done():
		a.mu.Lock()
		q := a.queues[client]
		for i, w := range q {
			if w == ch {
				a.queues[client] = append(q[:i:i], q[i+1:]...)
				if len(a.queues[client]) == 0 {
					delete(a.queues, client)
				}
				a.mu.Unlock()
				return nil, ctx.Err()
			}
		}
		a.mu.Unlock()
		// The grant raced the cancellation: the slot is ours and must be
		// handed back before reporting the abandonment.
		a.release()
		return nil, ctx.Err()
	}
}

// stats returns cumulative admission counts: requests admitted, requests
// rejected with ErrOverloaded, and requests that waited in a queue.
func (a *Admission) stats() (admitted, rejected, waited int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.admitted, a.rejected, a.waited
}

// holders returns the number of currently admitted holders.
func (a *Admission) holders() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inflight
}
