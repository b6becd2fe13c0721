// Package faultnet is a deterministic fault-injection layer for net
// listeners: it wraps net.Listener/net.Conn and perturbs traffic according
// to a seeded Script — delays, connection rejects, resets mid-message,
// black-holed reads and bounded byte corruption on writes.
//
// Faults trigger on call counts (the Nth Read/Write of the Kth accepted
// connection), not on wall-clock time, so a given script produces the same
// fault sequence on every run; the only randomness — which bytes a Corrupt
// rule flips — comes from the script's seed. The chaos suite in
// internal/dist uses this to prove each failure mode maps to the intended
// recovery (retry, failover, breaker trip, deadline expiry, partial result)
// under a fixed seed matrix.
package faultnet

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"time"
)

// Op selects which connection operation a rule triggers on.
type Op int

const (
	// OnRead triggers on a Read call (data arriving from the peer).
	OnRead Op = iota
	// OnWrite triggers on a Write call (data leaving for the peer).
	OnWrite
)

// Action is the fault a triggered rule injects.
type Action int

const (
	// Delay sleeps Rule.Duration before performing the operation.
	Delay Action = iota
	// Reset closes the connection mid-operation: a triggered read fails
	// immediately; a triggered write sends only a prefix of the message and
	// then closes, leaving the peer a truncated gob stream.
	Reset
	// Blackhole makes the connection permanently unresponsive: the
	// triggering read and every later one block until the connection is
	// closed. Writes from the peer still succeed — the classic hung worker.
	Blackhole
	// Corrupt flips up to Rule.Bytes bytes (seeded positions) of the written
	// payload and delivers it, exercising the peer's decode-error path.
	Corrupt
	// Reject closes the connection immediately on accept.
	Reject
)

// Rule injects one fault. All matching is by deterministic counters.
type Rule struct {
	// Conn is the accept-order index of the connection the rule applies to;
	// -1 matches every connection.
	Conn int
	// Op is the operation direction the rule triggers on (ignored by Reject).
	Op Op
	// Call is the 0-based index of the matching Read/Write call on that
	// connection (ignored by Reject).
	Call int
	// Action is the fault to inject.
	Action Action
	// Duration parameterises Delay.
	Duration time.Duration
	// Bytes parameterises Corrupt: how many bytes to flip (bounded by the
	// payload length; 0 means 1).
	Bytes int
}

// Script is a seeded fault plan applied to a listener.
type Script struct {
	// Seed drives the only random choice (corruption positions).
	Seed int64
	// Rules are checked in order; the first match fires.
	Rules []Rule
}

// ErrInjected is the error returned by operations a Reset rule killed.
var ErrInjected = errors.New("faultnet: injected connection reset")

// Listener wraps an inner listener and applies the script to every accepted
// connection.
type Listener struct {
	inner  net.Listener
	script Script

	mu       sync.Mutex
	accepted int
	rng      *rand.Rand
}

// Wrap applies a script to a listener. The wrapped listener is what a
// dist.Worker should Serve on.
func Wrap(l net.Listener, s Script) *Listener {
	return &Listener{inner: l, script: s, rng: rand.New(rand.NewSource(s.Seed))}
}

// Accept accepts the next connection, applying Reject rules and wiring the
// per-connection fault state.
func (l *Listener) Accept() (net.Conn, error) {
	for {
		c, err := l.inner.Accept()
		if err != nil {
			return nil, err
		}
		l.mu.Lock()
		idx := l.accepted
		l.accepted++
		l.mu.Unlock()
		if r := l.match(idx, func(r Rule) bool { return r.Action == Reject }); r != nil {
			c.Close()
			continue
		}
		return &Conn{Conn: c, l: l, idx: idx, done: make(chan struct{})}, nil
	}
}

// Close closes the inner listener.
func (l *Listener) Close() error { return l.inner.Close() }

// Addr returns the inner listener's address.
func (l *Listener) Addr() net.Addr { return l.inner.Addr() }

// match returns the first rule for connection idx satisfying pred.
func (l *Listener) match(idx int, pred func(Rule) bool) *Rule {
	for i := range l.script.Rules {
		r := &l.script.Rules[i]
		if (r.Conn == idx || r.Conn < 0) && pred(*r) {
			return r
		}
	}
	return nil
}

// corruptPositions picks n distinct byte offsets in [0, size) from the
// seeded source.
func (l *Listener) corruptPositions(n, size int) []int {
	if n < 1 {
		n = 1
	}
	if n > size {
		n = size
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	perm := l.rng.Perm(size)
	return perm[:n]
}

// Conn is a fault-injected connection.
type Conn struct {
	net.Conn
	l   *Listener
	idx int

	mu         sync.Mutex
	reads      int
	writes     int
	blackholed bool

	closeOnce sync.Once
	done      chan struct{}
}

// rule finds the first rule matching this connection, op and call index.
func (c *Conn) rule(op Op, call int) *Rule {
	return c.l.match(c.idx, func(r Rule) bool {
		return r.Action != Reject && r.Op == op && r.Call == call
	})
}

// sleep waits d, interruptible by Close.
func (c *Conn) sleep(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-c.done:
	}
}

// Read applies read-side faults, then delegates.
func (c *Conn) Read(b []byte) (int, error) {
	c.mu.Lock()
	call := c.reads
	c.reads++
	bh := c.blackholed
	c.mu.Unlock()
	if !bh {
		if r := c.rule(OnRead, call); r != nil {
			switch r.Action {
			case Delay:
				c.sleep(r.Duration)
			case Reset:
				c.Close()
				return 0, ErrInjected
			case Blackhole:
				c.mu.Lock()
				c.blackholed = true
				c.mu.Unlock()
				bh = true
			}
		}
	}
	if bh {
		// Block until the connection is torn down; the peer's deadline, not
		// ours, is what ends the exchange.
		<-c.done
		return 0, net.ErrClosed
	}
	return c.Conn.Read(b)
}

// Write applies write-side faults, then delegates.
func (c *Conn) Write(b []byte) (int, error) {
	c.mu.Lock()
	call := c.writes
	c.writes++
	c.mu.Unlock()
	if r := c.rule(OnWrite, call); r != nil {
		switch r.Action {
		case Delay:
			c.sleep(r.Duration)
		case Reset:
			// Reset mid-message: deliver a truncated prefix, then kill the
			// connection so the peer sees a broken stream.
			n := len(b) / 2
			if n > 0 {
				c.Conn.Write(b[:n])
			}
			c.Close()
			return n, ErrInjected
		case Blackhole:
			// The payload vanishes; the peer waits on a response that never
			// comes.
			return len(b), nil
		case Corrupt:
			buf := append([]byte(nil), b...)
			for _, p := range c.l.corruptPositions(r.Bytes, len(buf)) {
				buf[p] ^= 0xFF
			}
			if _, err := c.Conn.Write(buf); err != nil {
				return 0, err
			}
			return len(b), nil
		}
	}
	return c.Conn.Write(b)
}

// Close tears the connection down, releasing any black-holed or delayed
// operations.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() { close(c.done) })
	return c.Conn.Close()
}
