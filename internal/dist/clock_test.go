package dist

import (
	"slices"
	"sync"
	"testing"
	"time"
)

// instant is the longest retry backoff: maxAttempts is 2, so a call waits
// backoff(0), and adminCallResp also backoff(1), at most baseBackoff ×
// backoffMultiplier.
const instant = baseBackoff * backoffMultiplier

// fakeClock is the clock dist's tests move by hand. Advance runs each timer
// that falls due, in due order, on the caller's goroutine, with Now reading
// the timer's due time while it runs. A timer of at most instant — a retry
// backoff — fires at once on a goroutine of its own and leaves the time
// where it is: a retry against a dead worker needs no one to move the clock,
// and the clock moves only where a test says.
type fakeClock struct {
	mu     sync.Mutex
	now    time.Time
	timers []*fakeTimer // armed, in no order
}

type fakeTimer struct {
	c  *fakeClock
	at time.Time
	f  func()
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) AfterFunc(d time.Duration, f func()) timer {
	t := &fakeTimer{c: c, f: f}
	t.Reset(d)
	return t
}

// Advance moves the clock d forward, running every timer that falls due on
// the way, one re-armed while it runs included.
func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	end := c.now.Add(d)
	for {
		i := -1
		for j, t := range c.timers {
			if !t.at.After(end) && (i < 0 || t.at.Before(c.timers[i].at)) {
				i = j
			}
		}
		if i < 0 {
			break
		}
		t := c.timers[i]
		c.timers = slices.Delete(c.timers, i, i+1)
		c.now = t.at
		c.mu.Unlock()
		t.f()
		c.mu.Lock()
	}
	c.now = end
	c.mu.Unlock()
}

// armed reports whether a timer is set to fire d from now.
func (c *fakeClock) armed(d time.Duration) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.ContainsFunc(c.timers, func(t *fakeTimer) bool { return t.at.Equal(c.now.Add(d)) })
}

func (t *fakeTimer) Reset(d time.Duration) bool {
	was := t.Stop()
	if d <= instant {
		go t.f()
		return was
	}
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	t.at = t.c.now.Add(d)
	t.c.timers = append(t.c.timers, t)
	return was
}

func (t *fakeTimer) Stop() bool {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	i := slices.Index(t.c.timers, t)
	if i >= 0 {
		t.c.timers = slices.Delete(t.c.timers, i, i+1)
	}
	return i >= 0
}

// TestPeriodicStops: periodic calls f once per period the clock passes, and
// after stop returns it calls f no more, whether stop finds a call pending
// or one running.
func TestPeriodicStops(t *testing.T) {
	c := newFakeClock()
	calls := 0
	stop := periodic(c, time.Second, func() { calls++ })
	c.Advance(3500 * time.Millisecond)
	if calls != 3 {
		t.Fatalf("%d calls over 3.5 periods, want 3", calls)
	}
	stop()
	stop() // a second stop returns too
	c.Advance(5 * time.Second)
	if calls != 3 {
		t.Fatalf("%d calls after stop, want 3", calls)
	}

	entered, release := make(chan struct{}), make(chan struct{})
	stopRunning := periodic(c, time.Second, func() {
		close(entered)
		<-release
	})
	go c.Advance(time.Second)
	<-entered
	stopped := make(chan struct{})
	go func() {
		stopRunning()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("stop returned while a call was running")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-stopped
	if c.armed(time.Second) {
		t.Fatal("a timer is armed after stop returned")
	}
}
