package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
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

// muxReply hands one response frame from the reader goroutine to a waiter.
// The payload buffer belongs to the mux pool; the waiter returns it after
// decoding.
type muxReply struct {
	typ     byte
	payload []byte
}

// Mux is the client side of one multiplexed binary-protocol connection:
// many goroutines issue Call concurrently and their requests pipeline over
// the single connection, with responses matched back by sequence number. A
// call abandoned by its context simply stops waiting — the late response is
// discarded by sequence on arrival — so deadlines and cancellations never
// poison the stream, unlike a shared codec pair.
type Mux struct {
	c    net.Conn
	seq  atomic.Uint64
	pool sync.Pool // payload buffers handed reader -> waiter

	wmu  sync.Mutex
	wbuf []byte // frame scratch, reused across calls
	pbuf []byte // payload scratch, reused across calls

	mu      sync.Mutex
	waiters map[uint64]chan muxReply
	err     error // set once the connection is down
	done    chan struct{}
}

// NewMux sends the protocol preamble over c and starts the response reader.
// The mux owns c from here on.
func NewMux(c net.Conn) (*Mux, error) {
	if _, err := c.Write(Magic[:]); err != nil {
		c.Close()
		return nil, fmt.Errorf("serve: sending preamble: %w", err)
	}
	m := &Mux{
		c:       c,
		waiters: make(map[uint64]chan muxReply),
		done:    make(chan struct{}),
	}
	m.pool.New = func() any { return []byte(nil) }
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
		if ok {
			delete(m.waiters, seq)
		}
		m.mu.Unlock()
		if !ok {
			// A late response to an abandoned call: discard by sequence.
			m.pool.Put(payload[:0])
			continue
		}
		w <- muxReply{typ: typ, payload: payload} // buffered; never blocks
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
	close(m.done)
	m.mu.Unlock()
	m.c.Close()
	for _, w := range waiters {
		close(w) // a closed reply channel means "connection down"
	}
}

// Close tears the connection down; in-flight calls fail with a ClosedError.
func (m *Mux) Close() error {
	m.closeWith(errors.New("serve: mux closed"))
	return nil
}

// send frames and writes one request. It returns a NotSentError when ctx
// expired before any byte was written.
func (m *Mux) send(ctx context.Context, typ byte, seq uint64, req Marshaler) error {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	if err := ctx.Err(); err != nil {
		return &NotSentError{Err: err}
	}
	m.mu.Lock()
	down := m.err
	m.mu.Unlock()
	if down != nil {
		return &ClosedError{Cause: down}
	}
	m.pbuf = req.AppendWire(m.pbuf[:0])
	m.wbuf = AppendFrame(m.wbuf[:0], typ, seq, m.pbuf)
	// A blocked write (peer wedged, TCP buffer full) is bounded by the call
	// deadline; the write deadline is cleared before the next writer runs.
	if d, ok := ctx.Deadline(); ok {
		m.c.SetWriteDeadline(d)
	}
	n, err := m.c.Write(m.wbuf)
	m.c.SetWriteDeadline(time.Time{})
	if err != nil {
		if n == 0 && errors.Is(err, os.ErrDeadlineExceeded) {
			// The deadline beat the first byte: nothing reached the wire and
			// the stream is intact — this call expired, the connection did not.
			return &NotSentError{Err: context.DeadlineExceeded}
		}
		// The frame may be partially written: the stream is unusable.
		err = fmt.Errorf("serve: writing request: %w", err)
		m.closeWith(err)
		return err
	}
	return nil
}

// Call performs one pipelined request/response exchange: encode req, send it
// tagged with a fresh sequence number, and wait for the matching response,
// which is handed to dec (typ is the response frame's type byte; the payload
// is only valid during the callback). Concurrent calls interleave freely.
//
// Error contract: a NotSentError means the connection was never touched; a
// ctx error after the send means the call was abandoned but the connection
// remains healthy (the response will be discarded on arrival); any other
// error means the connection is down and must be redialed.
func (m *Mux) Call(ctx context.Context, typ byte, req Marshaler, dec func(typ byte, payload []byte) error) error {
	seq := m.seq.Add(1)
	w := make(chan muxReply, 1)
	m.mu.Lock()
	if m.err != nil {
		err := m.err
		m.mu.Unlock()
		return &ClosedError{Cause: err}
	}
	m.waiters[seq] = w
	m.mu.Unlock()

	if err := m.send(ctx, typ, seq, req); err != nil {
		m.mu.Lock()
		if m.waiters != nil {
			delete(m.waiters, seq)
		}
		m.mu.Unlock()
		return err
	}

	select {
	case reply, ok := <-w:
		if !ok {
			m.mu.Lock()
			cause := m.err
			m.mu.Unlock()
			return &ClosedError{Cause: cause}
		}
		err := dec(reply.typ, reply.payload)
		m.pool.Put(reply.payload[:0])
		if err != nil {
			// The peer sent a frame this caller cannot decode: framing is
			// intact but the session is broken. Kill it.
			m.closeWith(err)
			return err
		}
		return nil
	case <-ctx.Done():
		m.mu.Lock()
		if m.waiters != nil {
			if _, still := m.waiters[seq]; still {
				delete(m.waiters, seq)
				m.mu.Unlock()
				return ctx.Err()
			}
		}
		m.mu.Unlock()
		// The response raced the cancellation in; prefer delivering it.
		if reply, ok := <-w; ok {
			err := dec(reply.typ, reply.payload)
			m.pool.Put(reply.payload[:0])
			if err != nil {
				m.closeWith(err)
				return err
			}
			return nil
		}
		m.mu.Lock()
		cause := m.err
		m.mu.Unlock()
		return &ClosedError{Cause: cause}
	case <-m.done:
		m.mu.Lock()
		cause := m.err
		m.mu.Unlock()
		return &ClosedError{Cause: cause}
	}
}
