package dist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"paw/internal/serve"
)

// server is the one session server a Master and a Worker serve through: one
// accept loop, the set of live sessions, each on a goroutine of its own, and
// a close that ends them all (a peer parked in a frame read sees the reset).
type server struct {
	mu       sync.Mutex
	l        net.Listener // nil until serve
	closed   bool
	sessions map[net.Conn]struct{}
	wg       sync.WaitGroup
}

// serve accepts sessions on l until close; the server owns l from here on
// and what names it in errors. handle runs one session and returns how it
// ended; one that broke (not a clean hang-up, not the server's own close)
// is counted by dropped.
func (s *server) serve(l net.Listener, what string, handle func(net.Conn) error, dropped func()) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return fmt.Errorf("dist: %s is closed", what)
	case s.l != nil:
		return fmt.Errorf("dist: %s already started", what)
	}
	s.l, s.sessions = l, make(map[net.Conn]struct{})
	s.spawn(func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return // listener closed
			}
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				c.Close()
				continue
			}
			s.sessions[c] = struct{}{}
			s.spawn(func() {
				err := handle(c)
				c.Close()
				s.mu.Lock()
				delete(s.sessions, c)
				closed := s.closed
				s.mu.Unlock()
				if err != nil && !errors.Is(err, io.EOF) && !closed {
					dropped()
				}
			})
			s.mu.Unlock()
		}
	})
	return nil
}

// spawn runs f on a goroutine that close waits for.
func (s *server) spawn(f func()) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		f()
	}()
}

// state reports whether serve has started the server and whether close has
// closed it.
func (s *server) state() (started, closed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.l != nil, s.closed
}

// close closes the listener, then every live session, then waits for the
// server's goroutines. It is idempotent.
func (s *server) close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	var err error
	if s.l != nil {
		err = s.l.Close()
	}
	for c := range s.sessions {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// link is one lazily dialed, redialing connection to a peer: the master's to
// each worker slot, a Heartbeater's to its master. Any number of calls
// pipeline over its one serve.Mux, and the link alone decides when that
// connection is dead (call).
type link struct {
	mx atomic.Pointer[serve.Mux] // nil: not dialed yet, or dropped
	// m counts the link's redials and clean expiries: the master's series on
	// a worker slot's link, a zero set on a Heartbeater's.
	m *masterMetrics

	mu     sync.Mutex // guards addr and closed; a dial installs under it
	addr   string
	closed bool
}

// conn returns the link's connection, dialing lazily under ctx and, when by
// is set, by. A connection whose read loop has ended is dropped, counted a
// redial, and replaced. Concurrent dials race and the first installed wins;
// a dial that the link's close or move overtook is discarded.
func (l *link) conn(ctx context.Context, by time.Time) (*serve.Mux, error) {
	mx := l.mx.Load()
	if mx != nil && !mx.Down() {
		return mx, nil
	}
	if mx != nil && l.mx.CompareAndSwap(mx, nil) {
		l.m.redials.Inc()
	}
	l.mu.Lock()
	addr, closed := l.addr, l.closed
	l.mu.Unlock()
	switch {
	case closed:
		return nil, errors.New("dist: link is closed")
	case addr == "":
		return nil, errors.New("dist: no address to dial (not joined yet)")
	}
	if !by.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, by)
		defer cancel()
	}
	mx, err := serve.DialMux(ctx, addr)
	if err != nil {
		return nil, fmt.Errorf("dist: dialing %s: %w", addr, err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if cur := l.mx.Load(); cur != nil || l.closed || l.addr != addr {
		mx.Close()
		if cur == nil {
			return nil, fmt.Errorf("dist: link to %s closed or moved while dialing", addr)
		}
		return cur, nil
	}
	l.mx.Store(mx)
	return mx, nil
}

// call performs one pipelined exchange over the link with call deadline by
// (zero: none beyond ctx's): req goes out as a frame of type typ and the
// reply, which must be of type want, is handed to dec (a message's
// UnmarshalWire). It keeps the one link rule, under the serve.Mux.Call error
// contract: a request that never reached the wire (serve.NotSentError,
// counted a clean expiry) and a call abandoned by the caller's own context
// (a sibling RPC failed, the client hung up, the query's deadline passed)
// leave the connection in place — the late response is discarded by
// sequence number, and dropping it would fail every other call pipelined on
// it. Anything else drops it, counted a redial, so the next call redials: a
// failed dial, a serve.ClosedError, an I/O or decode failure, or by passing
// while ctx is live — the peer has stopped answering on that connection.
func (l *link) call(ctx context.Context, by time.Time, typ byte, req serve.Marshaler, want byte, dec func([]byte) error) error {
	mx, err := l.conn(ctx, by)
	if err == nil {
		err = roundTrip(ctx, by, mx, typ, req, want, dec)
	}
	switch {
	case err == nil:
	case serve.IsNotSent(err):
		l.m.cleanExpiries.Inc()
	case ctx.Err() != nil && errors.Is(err, ctx.Err()):
	default:
		l.drop(mx)
		l.m.redials.Inc()
	}
	return err
}

// drop closes mx and clears it from the link, so the next call redials. Every
// call in flight on a dying connection fails together; naming the one the
// caller saw fail keeps the stragglers from closing a replacement that a
// faster sibling already dialed.
func (l *link) drop(mx *serve.Mux) {
	if mx != nil && l.mx.CompareAndSwap(mx, nil) {
		mx.Close()
	}
}

// moveTo points the link at addr (a worker rejoining from a new host),
// closing the connection to the old one.
func (l *link) moveTo(addr string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.addr != addr {
		l.addr = addr
		l.drop(l.mx.Load())
	}
}

// address is the address the link dials.
func (l *link) address() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.addr
}

// close closes the connection; a closed link dials no more.
func (l *link) close() {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	l.drop(l.mx.Load())
}

// roundTrip performs one pipelined exchange on mx with call deadline by (see
// link.call). Distinct request and response types catch a mismatched reply
// at the protocol layer instead of misdecoding.
func roundTrip(ctx context.Context, by time.Time, mx *serve.Mux, typ byte, req serve.Marshaler, want byte, dec func([]byte) error) error {
	return mx.Call(ctx, by, typ, req, func(got byte, payload []byte) error {
		if got != want {
			return fmt.Errorf("dist: frame type %d in reply to a type-%d request, want %d", got, typ, want)
		}
		return dec(payload)
	})
}

// MuxClient speaks SQL to a master over the multiplexed binary protocol. It
// is safe for concurrent use and pipelines every in-flight query over its one
// connection; a deadline or cancellation abandons only the one call, never
// the connection.
type MuxClient struct {
	mux          *serve.Mux
	allowPartial atomic.Bool
}

// DialMux connects to a master's client port.
func DialMux(addr string) (*MuxClient, error) {
	mx, err := serve.DialMux(context.Background(), addr)
	if err != nil {
		return nil, err
	}
	return &MuxClient{mux: mx}, nil
}

// SetAllowPartial opts this client's future queries into partial results.
// Safe to call concurrently with queries.
func (c *MuxClient) SetAllowPartial(v bool) { c.allowPartial.Store(v) }

// Query runs one SQL statement with no client-side deadline.
func (c *MuxClient) Query(sql string) (QueryResponse, error) {
	return c.QueryContext(context.Background(), sql)
}

// QueryContext runs one SQL statement under ctx. The deadline ships to the
// master (threaded through every worker scan) and bounds the local wait; an
// expiry abandons the call but leaves the connection healthy — the late
// response is discarded by sequence number.
func (c *MuxClient) QueryContext(ctx context.Context, sql string) (QueryResponse, error) {
	return c.call(ctx, sql, false)
}

// Explain runs one SQL statement with a forced trace (EXPLAIN ANALYZE): the
// master samples it regardless of its tracing configuration and the response
// carries the assembled span tree (QueryResponse.Spans), per-partition
// worker scans included.
func (c *MuxClient) Explain(ctx context.Context, sql string) (QueryResponse, error) {
	return c.call(ctx, sql, true)
}

func (c *MuxClient) call(ctx context.Context, sql string, explain bool) (QueryResponse, error) {
	req := QueryRequest{SQL: sql, AllowPartial: c.allowPartial.Load(), Trace: explain}
	if d, ok := ctx.Deadline(); ok {
		ms := time.Until(d).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		req.TimeoutMillis = ms
	}
	var resp QueryResponse
	if err := roundTrip(ctx, time.Time{}, c.mux, msgQueryReq, &req, msgQueryResp, resp.UnmarshalWire); err != nil {
		return QueryResponse{}, err
	}
	if resp.Err != "" {
		return QueryResponse{}, respError(resp)
	}
	return resp, nil
}

// Close closes the client connection; in-flight queries fail.
func (c *MuxClient) Close() error { return c.mux.Close() }

// respError converts a response-carried failure into a client-side error,
// mapping typed codes onto their sentinel errors so callers can errors.Is.
func respError(resp QueryResponse) error {
	if resp.ErrCode == ErrCodeOverloaded {
		return fmt.Errorf("%s: %w", resp.Err, serve.ErrOverloaded)
	}
	return errors.New(resp.Err)
}

// errCodeFor maps a master-side failure to its wire code.
func errCodeFor(err error) int {
	if errors.Is(err, serve.ErrOverloaded) {
		return ErrCodeOverloaded
	}
	return ErrCodeNone
}
