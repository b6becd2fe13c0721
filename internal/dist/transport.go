package dist

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"paw/internal/serve"
)

// muxLink is the master's transport endpoint to one worker: scan and admin
// calls fan over a fixed pool of multiplexed connections round-robin. Any
// number of requests may be in flight on each connection; the pool exists to
// spread framing/write contention, not to bound concurrency. Errors follow
// the serve.Mux.Call contract: a serve.NotSentError or the caller's own
// context error leaves the link healthy; anything else means a connection of
// the pool is down and the link must be dropped and redialed.
type muxLink struct {
	muxes []*serve.Mux
	next  atomic.Uint32
}

// dialMuxLink opens n multiplexed connections to addr under ctx's deadline.
// A dial cut short by ctx reports ctx's error rather than the I/O error the
// interrupt produced, so callers can tell "deadline expired" from a genuinely
// unreachable peer with errors.Is.
func dialMuxLink(ctx context.Context, addr string, n int) (*muxLink, error) {
	if n < 1 {
		n = 1
	}
	l := &muxLink{muxes: make([]*serve.Mux, 0, n)}
	var d net.Dialer
	for i := 0; i < n; i++ {
		nc, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			l.close()
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			return nil, err
		}
		mx, err := serve.NewMux(nc)
		if err != nil {
			l.close()
			return nil, err
		}
		l.muxes = append(l.muxes, mx)
	}
	return l, nil
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

// pick returns the pool's next connection, round-robin.
func (l *muxLink) pick() *serve.Mux {
	return l.muxes[int(l.next.Add(1)-1)%len(l.muxes)]
}

// scan performs one ScanRequest round trip by the request's own Deadline.
func (l *muxLink) scan(ctx context.Context, req *ScanRequest, resp *ScanResponse) error {
	var by time.Time
	if req.Deadline > 0 {
		by = time.Unix(0, req.Deadline)
	}
	return roundTrip(ctx, by, l.pick(), msgScanReq, req, msgScanResp, resp.UnmarshalWire)
}

// admin performs one migration-control round trip under the call deadline by.
func (l *muxLink) admin(ctx context.Context, by time.Time, req *AdminRequest, resp *AdminResponse) error {
	return roundTrip(ctx, by, l.pick(), msgAdminReq, req, msgAdminResp, resp.UnmarshalWire)
}

func (l *muxLink) close() {
	for _, mx := range l.muxes {
		if mx != nil {
			mx.Close()
		}
	}
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
	mx, err := serve.DialMux(addr)
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
