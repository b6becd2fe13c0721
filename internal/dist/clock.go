package dist

import (
	"sync"
	"time"
)

// clock is where dist reads time for its own schedules: the breakers'
// cooldown, the retry backoff, the membership tick and the failure detector's
// readings, the rebalance cooldown, the heartbeat period and the bound on an
// epoch's drain. A Master and a Heartbeater run on wallClock; dist's own tests
// set the field to a clock they move by hand.
//
// A reading whose value leaves those schedules stays on the wall clock, as
// any other time would expire a real context or socket at once, or never:
//   - the stopwatches of the cost record and the latency histogram (query and
//     serveQuery);
//   - the deadlines handed to a context, a socket, the wire Deadline or
//     serve.Mux: the query deadline from QueryTimeout and from a client's
//     TimeoutMillis, callDeadline's per-call bound (callWorker and
//     adminCallResp), a worker's test of a request's Deadline, and the
//     TimeoutMillis a MuxClient sends. serve.Mux and faultnet do the same.
type clock interface {
	Now() time.Time
	// AfterFunc calls f once d has passed, on a goroutine of its own.
	AfterFunc(d time.Duration, f func()) timer
}

// timer is a pending AfterFunc call.
type timer interface {
	Stop() bool
	Reset(d time.Duration) bool
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) AfterFunc(d time.Duration, f func()) timer { return time.AfterFunc(d, f) }

// periodic calls f every d on c, the first time d from now, each call timed
// from the end of the one before, until the returned stop is called. Once
// stop returns, no call is running and none will start.
func periodic(c clock, d time.Duration, f func()) (stop func()) {
	var mu sync.Mutex
	stopped := false
	var t timer
	mu.Lock()
	defer mu.Unlock()
	t = c.AfterFunc(d, func() {
		mu.Lock()
		defer mu.Unlock()
		if !stopped {
			f()
			t.Reset(d)
		}
	})
	return func() {
		mu.Lock()
		defer mu.Unlock()
		stopped = true
		t.Stop()
	}
}
