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

// ErrRefused marks a membership request the master executed and refused
// (checksum mismatch, membership disabled, a tracker rejection): the
// connection is healthy, the request is not, and retrying it unchanged cannot
// succeed. Transport failures never carry it.
var ErrRefused = errors.New("refused by master")

// Heartbeater is the worker side of the membership protocol: it performs the
// join handshake against the master's client port, then beats on a fixed
// period so the failure detector keeps the worker Alive, and finally asks
// for a graceful leave (the master drains the worker's partitions before
// answering). Member traffic rides the client port as dedicated
// msgMemberReq/msgMemberResp frames.
//
// A Heartbeater survives connection loss: each failed call drops the cached
// connection and the next call redials, so a master restart shows up as a
// few missed beats, not a dead worker process.
type Heartbeater struct {
	addr string

	mu  sync.Mutex
	mux *serve.Mux

	index atomic.Int64

	started  atomic.Bool
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewHeartbeater targets a master's client port.
func NewHeartbeater(masterAddr string) *Heartbeater {
	h := &Heartbeater{
		addr: masterAddr,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	h.index.Store(-1)
	return h
}

// Index returns the slot the master assigned at join time (-1 before Join).
func (h *Heartbeater) Index() int { return int(h.index.Load()) }

// call performs one membership exchange, dialing lazily. Any failure past
// the send drops the cached connection — a beat that timed out against a
// wedged master included, since a fresh dial is the cheapest probe of whether
// the master is still there — so the next call starts clean.
func (h *Heartbeater) call(ctx context.Context, req MemberRequest) (MemberResponse, error) {
	h.mu.Lock()
	mx := h.mux
	if mx == nil {
		var err error
		mx, err = serve.DialMux(h.addr)
		if err != nil {
			h.mu.Unlock()
			return MemberResponse{}, fmt.Errorf("dist: dialing master %s: %w", h.addr, err)
		}
		h.mux = mx
	}
	h.mu.Unlock()
	var resp MemberResponse
	if err := roundTrip(ctx, time.Time{}, mx, msgMemberReq, &req, msgMemberResp, resp.UnmarshalWire); err != nil {
		if !serve.IsNotSent(err) {
			h.dropConn()
		}
		return MemberResponse{}, err
	}
	if resp.Err != "" {
		return resp, fmt.Errorf("%w: %s", ErrRefused, resp.Err)
	}
	return resp, nil
}

func (h *Heartbeater) dropConn() {
	h.mu.Lock()
	mx := h.mux
	h.mux = nil
	h.mu.Unlock()
	if mx != nil {
		mx.Close()
	}
}

// Join registers with the master: index -1 resolves by the advertised
// address (a fresh join gets a new slot; a known address revives its slot),
// sum is the membership.Checksum of the partition IDs this worker hosts. On
// success the assigned slot is remembered for subsequent beats.
func (h *Heartbeater) Join(ctx context.Context, index int, advertise string, sum uint64) (MemberResponse, error) {
	resp, err := h.call(ctx, MemberRequest{Op: MemberJoin, Index: index, Addr: advertise, Sum: sum})
	if err != nil {
		return resp, err
	}
	h.index.Store(int64(resp.Index))
	return resp, nil
}

// Beat sends one heartbeat for the joined slot.
func (h *Heartbeater) Beat(ctx context.Context) (MemberResponse, error) {
	idx := h.index.Load()
	if idx < 0 {
		return MemberResponse{}, errors.New("dist: heartbeat before join")
	}
	return h.call(ctx, MemberRequest{Op: MemberBeat, Index: int(idx)})
}

// Leave asks the master for a graceful leave. The call returns only after
// the master has drained this worker's partitions onto the remaining
// members (or refused), so the caller may shut down on success without any
// query ever missing rows.
func (h *Heartbeater) Leave(ctx context.Context) (MemberResponse, error) {
	idx := h.index.Load()
	if idx < 0 {
		return MemberResponse{}, errors.New("dist: leave before join")
	}
	return h.call(ctx, MemberRequest{Op: MemberLeave, Index: int(idx)})
}

// Start launches the background beat loop (default period 500ms). Each beat
// runs under its own deadline so a wedged master delays, never wedges, the
// loop. Start may be called once; Close stops the loop.
func (h *Heartbeater) Start(every time.Duration) {
	if every <= 0 {
		every = 500 * time.Millisecond
	}
	if !h.started.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		timeout := every
		if timeout < time.Second {
			timeout = time.Second
		}
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				ctx, cancel := context.WithTimeout(context.Background(), timeout)
				_, err := h.Beat(ctx)
				cancel()
				if err != nil {
					// Transient: the connection was dropped above and the
					// next tick redials. The master's failure detector is
					// the authority on how many misses matter.
					continue
				}
			}
		}
	}()
}

// Close stops the beat loop and drops any cached connection. It does not
// send a leave — call Leave first for a graceful departure.
func (h *Heartbeater) Close() {
	h.stopOnce.Do(func() { close(h.stop) })
	if h.started.Load() {
		<-h.done
	}
	h.dropConn()
}
