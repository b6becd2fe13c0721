package dist

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"paw/internal/layout"
)

// ErrRefused marks a membership request the master executed and refused
// (a slot its store cannot serve, membership disabled, a tracker rejection): the
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
// A Heartbeater survives connection loss: its link drops a dead connection
// by the master's rule (link.call) and the next call redials, under that
// call's context, so a master restart shows up as a few missed beats, not a
// dead worker process.
type Heartbeater struct {
	link link
	// clock times the beats (clock.go).
	clock clock

	mu sync.Mutex
	// stopBeats stops the beats Start began (nil before Start).
	stopBeats func()

	index atomic.Int64
}

// NewHeartbeater targets a master's client port.
func NewHeartbeater(masterAddr string) *Heartbeater {
	h := &Heartbeater{clock: wallClock{}}
	h.link.addr, h.link.m = masterAddr, new(masterMetrics) // counts nothing
	h.index.Store(-1)
	return h
}

// call performs one membership exchange under ctx and call deadline by
// (zero: none beyond ctx's), dialing lazily.
func (h *Heartbeater) call(ctx context.Context, by time.Time, req MemberRequest) (MemberResponse, error) {
	var resp MemberResponse
	if err := h.link.call(ctx, by, msgMemberReq, &req, msgMemberResp, resp.UnmarshalWire); err != nil {
		return MemberResponse{}, err
	}
	if resp.Err != "" {
		return resp, fmt.Errorf("%w: %s", ErrRefused, resp.Err)
	}
	return resp, nil
}

// Join registers with the master: index -1 resolves by the advertised
// address (a fresh join gets a new slot; a known address revives its slot),
// and boot is the layout this worker's store was written for (nil: it has no
// store). On success the assigned slot is remembered for subsequent beats.
func (h *Heartbeater) Join(ctx context.Context, index int, advertise string, boot *layout.Layout) (MemberResponse, error) {
	resp, err := h.call(ctx, time.Time{}, MemberRequest{Op: MemberJoin, Index: index, Addr: advertise, Sum: layoutSum(boot)})
	if err != nil {
		return resp, err
	}
	h.index.Store(int64(resp.Index))
	return resp, nil
}

// Beat sends one heartbeat for the joined slot, bounded by a call deadline
// a second out: a beat that outlives it against a wedged master drops the
// connection, since a fresh dial is the cheapest probe of whether the master
// is still there.
func (h *Heartbeater) Beat(ctx context.Context) (MemberResponse, error) {
	idx := h.index.Load()
	if idx < 0 {
		return MemberResponse{}, errors.New("dist: heartbeat before join")
	}
	return h.call(ctx, time.Now().Add(time.Second), MemberRequest{Op: MemberBeat, Index: int(idx)})
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
	return h.call(ctx, time.Time{}, MemberRequest{Op: MemberLeave, Index: int(idx)})
}

// Start begins beating every memberTick, the master's tick period. Each beat
// runs under a deadline of its own (Beat) so a wedged master delays, never
// wedges, the beats. Start may be called once, before Close; Close stops the
// beats.
func (h *Heartbeater) Start() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.stopBeats != nil {
		return
	}
	h.stopBeats = periodic(h.clock, memberTick, func() {
		// A failed beat dropped the connection and the next redials; the
		// master's failure detector decides how many misses matter.
		_, _ = h.Beat(context.Background())
	})
}

// Close stops the beats and closes the connection. It does not send a leave —
// call Leave first for a graceful departure.
func (h *Heartbeater) Close() {
	h.mu.Lock()
	stop := h.stopBeats
	h.mu.Unlock()
	if stop != nil {
		stop() // waits for a beat in progress, which its deadline bounds
	}
	h.link.close()
}
