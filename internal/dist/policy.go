package dist

import (
	"math/rand"
	"sync"
	"time"
)

// RetryPolicy governs how the master treats worker-call failures: bounded
// per-call attempts (maxAttempts) with exponential backoff and deterministic
// (seeded) jitter, a per-query retry budget shared by all of a query's
// scatter RPCs (queryRetryBudget), and a per-worker consecutive-failure
// breaker that short-circuits dials to a worker that keeps failing until a
// cooldown probe succeeds.
type RetryPolicy struct {
	// BreakerThreshold is the number of consecutive failures that trips a
	// worker's breaker (0 disables the breaker).
	BreakerThreshold int
}

// Retry constants: every binary, benchmark and example ran with these values.
const (
	// maxAttempts bounds the attempts of one scan RPC, including the first:
	// dial once, redial once.
	maxAttempts = 2
	// queryRetryBudget caps the retries (attempts beyond the first) one
	// query may spend across all its scatter RPCs.
	queryRetryBudget = 16
	// baseBackoff is the delay before the first retry; each further retry
	// multiplies it by backoffMultiplier, up to maxBackoff.
	baseBackoff       = 5 * time.Millisecond
	maxBackoff        = 500 * time.Millisecond
	backoffMultiplier = 2
	// jitterSeed feeds the jitter source, so the same failure order yields
	// the same delays.
	jitterSeed = 1
	// breakerCooldown is how long a tripped breaker short-circuits calls
	// before it admits a single probe.
	breakerCooldown = 500 * time.Millisecond
)

// jitter is the master's seeded backoff-jitter source; a mutex serialises
// the rand.Rand (scatter goroutines back off concurrently).
type jitter struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func newJitter() *jitter {
	return &jitter{rng: rand.New(rand.NewSource(jitterSeed))}
}

// backoff returns the delay before retry number retry (0-based): the
// exponential curve scaled into [50%, 100%] by the seeded jitter source.
func (j *jitter) backoff(retry int) time.Duration {
	d := float64(baseBackoff)
	for i := 0; i < retry; i++ {
		d *= backoffMultiplier
		if d >= float64(maxBackoff) {
			d = float64(maxBackoff)
			break
		}
	}
	j.mu.Lock()
	f := 0.5 + 0.5*j.rng.Float64()
	j.mu.Unlock()
	return time.Duration(d * f)
}

// breaker states. closed admits calls; open short-circuits them; half-open
// admits exactly one probe whose outcome decides the next state.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// breaker is a per-worker consecutive-failure circuit breaker.
type breaker struct {
	mu          sync.Mutex
	state       int
	consecutive int
	openedAt    time.Time
}

// allow reports whether a call to the worker may proceed. An open breaker
// past its cooldown transitions to half-open and admits the caller as the
// probe; probe reports whether this call is that probe.
func (b *breaker) allow(p RetryPolicy, now time.Time) (ok, probe bool) {
	if p.BreakerThreshold <= 0 {
		return true, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true, false
	case breakerOpen:
		if now.Sub(b.openedAt) >= breakerCooldown {
			b.state = breakerHalfOpen
			return true, true
		}
		return false, false
	default: // half-open: a probe is already in flight
		return false, false
	}
}

// healthy is a side-effect-free peek used for replica selection: a worker is
// healthy when its breaker would admit a call right now.
func (b *breaker) healthy(p RetryPolicy, now time.Time) bool {
	if p.BreakerThreshold <= 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == breakerClosed ||
		(b.state == breakerOpen && now.Sub(b.openedAt) >= breakerCooldown)
}

// success records a successful call: the breaker closes and the failure run
// resets.
func (b *breaker) success() {
	b.mu.Lock()
	b.state = breakerClosed
	b.consecutive = 0
	b.mu.Unlock()
}

// failure records a failed call and reports whether this failure tripped the
// breaker (closed past the threshold, or a failed half-open probe).
func (b *breaker) failure(p RetryPolicy, now time.Time) (tripped bool) {
	if p.BreakerThreshold <= 0 {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecutive++
	if b.state == breakerHalfOpen ||
		(b.state == breakerClosed && b.consecutive >= p.BreakerThreshold) {
		b.state = breakerOpen
		b.openedAt = now
		return true
	}
	if b.state == breakerOpen {
		// Concurrent failures while open keep it open; refresh the window.
		b.openedAt = now
	}
	return false
}
