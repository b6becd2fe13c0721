package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Marshaler is a message that can append its binary encoding to a buffer,
// returning the extended slice (the append-style idiom keeps encoding
// allocation-free once the buffer has grown to steady state).
type Marshaler interface {
	AppendWire(buf []byte) []byte
}

// NotSentError reports that a call failed before its request bytes reached
// the wire: the connection was never touched and remains safe to reuse.
// Callers use this to distinguish a clean deadline/cancellation expiry from
// a poisoned stream that must be redialed.
type NotSentError struct{ Err error }

func (e *NotSentError) Error() string { return fmt.Sprintf("serve: request not sent: %v", e.Err) }
func (e *NotSentError) Unwrap() error { return e.Err }

// IsNotSent reports whether err guarantees the request never reached the
// wire (the connection is still clean).
func IsNotSent(err error) bool {
	var ns *NotSentError
	return errors.As(err, &ns)
}

// ClosedError reports a call that failed because the multiplexed connection
// is down; Cause is the connection-level error that killed it.
type ClosedError struct{ Cause error }

func (e *ClosedError) Error() string { return fmt.Sprintf("serve: connection down: %v", e.Cause) }
func (e *ClosedError) Unwrap() error { return e.Cause }

// muxReply ends one call's wait: a response frame, whose payload buffer the
// waiter returns to the mux pool after decoding, or the reaper's err.
type muxReply struct {
	typ     byte
	payload []byte
	err     error
}

// waiter is one call waiting until by (zero: no deadline), its own deadline
// (own) or its context's, whichever is first. The reaper ends only an own wait:
// a context's expiry is the context's, and for it the reaper bounds the write.
type waiter struct {
	reply chan muxReply // buffered: whoever takes the waiter out sends once
	by    time.Time
	own   bool
}

// Mux is the client side of one multiplexed binary-protocol connection:
// many goroutines issue Call concurrently and their requests pipeline over
// the single connection, with responses matched back by sequence number. A
// call abandoned by its context or its deadline simply stops waiting — the
// late response is discarded by sequence on arrival — so it never poisons the
// stream. All deadlines share one timer, the reaper, armed at the earliest.
type Mux struct {
	c    net.Conn
	seq  atomic.Uint64
	pool sync.Pool // payload buffers handed reader -> waiter

	wmu     sync.Mutex
	wbuf    []byte        // frame scratch, reused across calls
	pbuf    []byte        // payload scratch, reused across calls
	writing atomic.Uint64 // seq of the frame being written, if it has a deadline

	mu      sync.Mutex
	waiters map[uint64]waiter
	err     error // set once the connection is down
	reaper  *time.Timer
	armed   time.Time // when the reaper fires next (zero: idle)
}

// NewMux sends the protocol preamble over c and starts the response reader.
// The mux owns c from here on.
func NewMux(c net.Conn) (*Mux, error) {
	if _, err := c.Write(Magic[:]); err != nil {
		c.Close()
		return nil, fmt.Errorf("serve: sending preamble: %w", err)
	}
	m := &Mux{c: c, waiters: make(map[uint64]waiter)}
	m.pool.New = func() any { return []byte(nil) }
	m.reaper = time.AfterFunc(time.Hour, m.reap)
	m.reaper.Stop() // armed by the first call with a deadline
	go m.readLoop()
	return m, nil
}

// Dial connects to addr and opens a mux on the connection.
func DialMux(addr string) (*Mux, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewMux(c)
}

// readLoop delivers response frames to their waiters until the connection
// dies; any terminal error fails every in-flight and future call. It reads
// through a buffer, as ServeConn does: a small reply's header and payload
// arrive in one read(2), not one each.
func (m *Mux) readLoop() {
	r := bufio.NewReader(m.c)
	var hdr [headerLen]byte
	for {
		buf := m.pool.Get().([]byte)
		typ, seq, payload, err := ReadFrame(r, &hdr, buf)
		if err != nil {
			m.closeWith(err)
			return
		}
		m.mu.Lock()
		w, ok := m.waiters[seq]
		delete(m.waiters, seq)
		m.mu.Unlock()
		if !ok {
			// A late response to an abandoned call: discard by sequence.
			m.pool.Put(payload[:0])
			continue
		}
		w.reply <- muxReply{typ: typ, payload: payload} // buffered; never blocks
	}
}

// closeWith marks the mux down with cause, failing all waiters exactly once.
func (m *Mux) closeWith(cause error) {
	m.mu.Lock()
	if m.err != nil {
		m.mu.Unlock()
		return
	}
	m.err = cause
	waiters := m.waiters
	m.waiters = nil
	m.reaper.Stop()
	m.mu.Unlock()
	m.c.Close()
	for _, w := range waiters {
		close(w.reply) // a closed reply channel means "connection down"
	}
}

// Close tears the connection down; in-flight calls fail with a ClosedError.
func (m *Mux) Close() error {
	m.closeWith(errors.New("serve: mux closed"))
	return nil
}

// closedErr is the error of a call the connection's end failed.
func (m *Mux) closedErr() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return &ClosedError{Cause: m.err}
}

// reap ends each overdue own wait with context.DeadlineExceeded, closes the
// connection under an overdue write (a wedged peer), and re-arms at the
// earliest deadline still ahead.
func (m *Mux) reap() {
	m.mu.Lock()
	now := time.Now()
	m.armed = time.Time{}
	stalled := false
	for seq, w := range m.waiters {
		switch {
		case w.by.IsZero():
		case now.Before(w.by):
			if m.armed.IsZero() || w.by.Before(m.armed) {
				m.armed = w.by
			}
		case seq == m.writing.Load():
			stalled = true
		case w.own:
			delete(m.waiters, seq)
			w.reply <- muxReply{err: context.DeadlineExceeded} // buffered; never blocks
		}
	}
	if !m.armed.IsZero() {
		m.reaper.Reset(m.armed.Sub(now))
	}
	m.mu.Unlock()
	if stalled {
		m.closeWith(errors.New("serve: peer stopped reading: a request write outlived its deadline"))
	}
}

// send frames and writes one request. It returns a NotSentError when ctx is
// done or by has passed before any byte is written; the reaper bounds the
// write itself.
func (m *Mux) send(ctx context.Context, by time.Time, typ byte, seq uint64, req Marshaler) error {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	if err := ctx.Err(); err != nil {
		return &NotSentError{Err: err}
	}
	m.pbuf = req.AppendWire(m.pbuf[:0])
	m.wbuf = AppendFrame(m.wbuf[:0], typ, seq, m.pbuf)
	if !by.IsZero() {
		m.mu.Lock() // so the reaper sees by passed here or sees this write
		if !time.Now().Before(by) {
			m.mu.Unlock()
			return &NotSentError{Err: context.DeadlineExceeded}
		}
		m.writing.Store(seq)
		m.mu.Unlock()
	}
	_, err := m.c.Write(m.wbuf)
	m.writing.Store(0)
	if err != nil {
		// The frame may be partly written: the stream is unusable.
		m.closeWith(fmt.Errorf("serve: writing request: %w", err))
		return m.closedErr()
	}
	return nil
}

// Call performs one pipelined request/response exchange: encode req, send it
// tagged with a fresh sequence number, and wait for the matching response,
// which is handed to dec (typ is the response frame's type byte; the payload
// is only valid during the callback). Concurrent calls interleave freely. by
// is the call's own deadline (zero: none beyond ctx's), kept by the reaper.
//
// Error contract: a NotSentError means the connection was never touched; a
// ctx error or, at by, context.DeadlineExceeded after the send means the call
// was abandoned but the connection is healthy (the response is discarded on
// arrival); any other error means the connection is down and must be redialed.
func (m *Mux) Call(ctx context.Context, by time.Time, typ byte, req Marshaler, dec func(typ byte, payload []byte) error) error {
	w := waiter{reply: make(chan muxReply, 1), by: by, own: !by.IsZero()}
	if d, ok := ctx.Deadline(); ok && (!w.own || !by.Before(d)) {
		w.by, w.own = d, false
	}
	seq := m.seq.Add(1)
	m.mu.Lock()
	if m.err != nil {
		m.mu.Unlock()
		return m.closedErr()
	}
	m.waiters[seq] = w
	if !w.by.IsZero() && (m.armed.IsZero() || w.by.Before(m.armed)) {
		m.armed = w.by
		m.reaper.Reset(time.Until(w.by))
	}
	m.mu.Unlock()

	if err := m.send(ctx, w.by, typ, seq, req); err != nil {
		m.mu.Lock()
		delete(m.waiters, seq)
		m.mu.Unlock()
		return err
	}

	select {
	case r, ok := <-w.reply:
		return m.deliver(r, ok, dec)
	case <-ctx.Done():
		m.mu.Lock()
		_, still := m.waiters[seq]
		delete(m.waiters, seq)
		m.mu.Unlock()
		if still {
			return ctx.Err()
		}
		// A reply, an expiry or the close raced the context in: deliver it.
		r, ok := <-w.reply
		return m.deliver(r, ok, dec)
	}
}

// deliver ends a call with what its reply channel gave it.
func (m *Mux) deliver(r muxReply, ok bool, dec func(typ byte, payload []byte) error) error {
	if !ok {
		return m.closedErr()
	}
	if r.err != nil {
		return r.err
	}
	err := dec(r.typ, r.payload)
	m.pool.Put(r.payload[:0])
	if err != nil {
		// The peer sent a frame this caller cannot decode: framing is intact
		// but the session is broken. Kill it.
		m.closeWith(err)
	}
	return err
}
