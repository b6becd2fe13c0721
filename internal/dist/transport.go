package dist

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"paw/internal/serve"
)

// link is one lazily dialed, redialing connection to a peer: the master's to
// each worker slot, a Heartbeater's to its master. Any number of calls
// pipeline over its one serve.Mux. Under the serve.Mux.Call contract a
// serve.NotSentError or the caller's own context error leaves the connection
// healthy; anything else means it is down, and the caller drops it so the
// next call redials.
type link struct {
	mx atomic.Pointer[serve.Mux] // nil: not dialed yet, or dropped

	mu     sync.Mutex // guards addr and closed; a dial installs under it
	addr   string
	closed bool
}

// conn returns the link's connection, dialing lazily under ctx and, when by
// is set, by. Concurrent dials race and the first installed wins; a dial that
// the link's close or move overtook is discarded.
func (l *link) conn(ctx context.Context, by time.Time) (*serve.Mux, error) {
	if mx := l.mx.Load(); mx != nil {
		return mx, nil
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

// roundTrip performs one pipelined exchange on mx with call deadline by: req
// goes out as a frame of type typ and the reply, which must be of type want, is
// handed to dec (a message's UnmarshalWire). Distinct request and response
// types catch a mismatched reply at the protocol layer instead of misdecoding.
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
