package dist

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"strconv"
	"sync"
	"time"

	"paw/internal/layout"
	"paw/internal/membership"
)

// Elastic cluster membership (DESIGN.md §15): workers join a running master
// with a handshake that names the layout their store holds, heartbeat
// through a suspect→dead failure detector, and leave gracefully after their
// data is drained away.
// The state machine itself lives in internal/membership (pure, clock-as-
// argument); this file owns the wire protocol and the glue to the fleet.
//
// Member traffic rides the client port as dedicated msgMemberReq/msgMemberResp
// frames beside the query frames.

// Member operations carried by MemberRequest.
const (
	// MemberJoin registers a worker: a fresh address gets a new slot, a
	// known address (or explicit index) revives its slot. A slot that hosts
	// partitions takes only a worker whose store is of the master's boot
	// layout, and only while the master still serves epoch 0.
	MemberJoin = 1
	// MemberBeat is a heartbeat; it revives Suspect/Dead members.
	MemberBeat = 2
	// MemberLeave starts a graceful leave: the master drains the worker's
	// partitions onto the remaining members and answers only when the
	// worker holds nothing the placement needs.
	MemberLeave = 3
)

// MemberRequest is the worker-to-master membership message.
type MemberRequest struct {
	Op int
	// Index is the worker's slot, or -1 to resolve by address (fresh join).
	Index int
	// Addr is the worker's advertised scan-serving address (join only).
	Addr string
	// Sum is the first 8 bytes of the digest of the layout the worker's
	// store was written for, 0 for a worker with no store (join only).
	Sum uint64
}

// MemberResponse answers a membership operation. Err "" means success.
type MemberResponse struct {
	// Index is the slot assigned to (or confirmed for) the worker.
	Index int
	// Epoch is the master's current layout epoch.
	Epoch uint64
	// Version is the membership view version after the operation.
	Version uint64
	Err     string
}

// MembershipConfig tunes the master's membership subsystem.
type MembershipConfig struct {
	// Detector is the heartbeat failure detector's thresholds
	// (suspect/dead); zero fields use membership defaults.
	Detector membership.Config
	// AutoRebalance lets ticks trigger rebalances when the placement
	// references a dead worker or a live member hosts nothing. Flapping
	// Alive↔Suspect members never trigger one: Suspect members keep their
	// placement, so the trigger condition is unchanged by a flap.
	AutoRebalance bool
}

// memberTick is the detector's tick period; rebalanceCooldown spaces auto rounds.
const memberTick, rebalanceCooldown = 500 * time.Millisecond, 5 * time.Second

// membershipState is the master-side membership subsystem.
type membershipState struct {
	cfg     MembershipConfig
	tracker *membership.Tracker
	// replicas is the copy count the ring placement maintains: the
	// replication degree of the placement the master booted with.
	replicas int

	// joinMu serialises join handshakes so the tracker's slot indices and
	// the fleet's slots grow in lockstep.
	joinMu sync.Mutex
	// rebalanceMu serialises rebalances. A tick TryLocks it and hands it to
	// the round it starts: once the tick returns, that round holds it.
	rebalanceMu sync.Mutex

	mu            sync.Mutex
	lastRebalance time.Time
	// lostAt is the view version an automatic round last aborted at with
	// ErrPartitionLost, if lost. No holder of those partitions becomes
	// reachable without a membership change, so the auto path makes no new
	// attempt until the view's version moves.
	lostAt uint64
	lost   bool

	ctx    context.Context
	cancel context.CancelFunc
	// stopTicks stops the ticks Start begins (a no-op before Start).
	stopTicks func()
}

// EnableMembership switches the master to elastic membership: the current
// fleet seeds the tracker as Alive members, and from here on workers may
// join, leave and be declared dead. Must be called before Start; the failure
// detector ticks every memberTick from Start until Close.
func (m *Master) EnableMembership(cfg MembershipConfig) error {
	replicas := 1
	for _, ws := range m.Placement() {
		replicas = max(replicas, len(ws))
	}
	cfg.Detector = cfg.Detector.Normalized()
	var addrs []string
	for _, s := range *m.slots.Load() {
		addrs = append(addrs, s.link.address())
	}
	ctx, cancel := context.WithCancel(context.Background())
	ms := &membershipState{
		cfg:       cfg,
		tracker:   membership.NewTracker(cfg.Detector, addrs, m.clock.Now()),
		replicas:  replicas,
		ctx:       ctx,
		cancel:    cancel,
		stopTicks: func() {},
	}
	if !m.member.CompareAndSwap(nil, ms) {
		cancel()
		return fmt.Errorf("dist: membership is already enabled")
	}
	return nil
}

// membershipTick advances the failure detector to the clock's now: silent
// members go Suspect then Dead, dead workers are deprioritised on the scatter
// path, and — with AutoRebalance — a rebalance is kicked off when the
// placement needs one.
func (m *Master) membershipTick() {
	ms := m.member.Load()
	now := m.clock.Now()
	trs := ms.tracker.Tick(now)
	for _, tr := range trs {
		switch tr.To {
		case membership.Dead:
			m.setDown(tr.Index, true)
			slog.Warn("worker declared dead", "worker", tr.Index, "addr", tr.Addr)
		case membership.Alive:
			m.setDown(tr.Index, false)
		}
	}
	if len(trs) > 0 {
		m.updateMemberGauges(ms)
	}
	if ms.cfg.AutoRebalance {
		m.maybeAutoRebalance(ms, now)
	}
}

func (m *Master) updateMemberGauges(ms *membershipState) {
	var alive, suspect, dead int64
	for _, mem := range ms.tracker.View().Members {
		switch mem.State {
		case membership.Alive:
			alive++
		case membership.Suspect:
			suspect++
		case membership.Dead:
			dead++
		}
	}
	m.m.membersAlive.Set(alive)
	m.m.membersSuspect.Set(suspect)
	m.m.membersDead.Set(dead)
}

// needsRebalance reports whether the placement and the membership view
// disagree: a partition is placed on a non-placeable (dead/left/draining)
// worker, or a placeable member hosts nothing. Both conditions are stable
// under Alive↔Suspect flapping, which is the no-thrash property.
func (m *Master) needsRebalance(ms *membershipState) bool {
	view := ms.tracker.View()
	placeable := make(map[int]bool)
	for _, w := range view.Placeable() {
		placeable[w] = true
	}
	if len(placeable) == 0 {
		return false // nothing to rebalance onto
	}
	hosted := make(map[int]bool)
	for _, ws := range m.Placement() {
		for _, w := range ws {
			if !placeable[w] {
				return true
			}
			hosted[w] = true
		}
	}
	for w := range placeable {
		if !hosted[w] {
			return true
		}
	}
	return false
}

func (m *Master) maybeAutoRebalance(ms *membershipState, now time.Time) {
	// Under the lock no round runs, and the last one has recorded its outcome.
	if !ms.rebalanceMu.TryLock() {
		return
	}
	version := ms.tracker.View().Version
	ms.mu.Lock()
	due := now.Sub(ms.lastRebalance) >= rebalanceCooldown && !(ms.lost && ms.lostAt == version)
	ms.mu.Unlock()
	if !due || !m.needsRebalance(ms) {
		ms.rebalanceMu.Unlock()
		return
	}
	m.srv.spawn(func() {
		defer ms.rebalanceMu.Unlock()
		_, err := m.rebalance(ms.ctx, ms)
		ms.mu.Lock()
		ms.lost, ms.lostAt = errors.Is(err, ErrPartitionLost), version
		ms.mu.Unlock()
		if err != nil {
			slog.Warn("auto-rebalance failed", "err", err)
		}
	})
}

// handleMember executes one membership operation.
func (m *Master) handleMember(req *MemberRequest) MemberResponse {
	ms := m.member.Load()
	if ms == nil {
		return MemberResponse{Index: -1, Err: "dist: membership is not enabled on this master"}
	}
	now := m.clock.Now()
	switch req.Op {
	case MemberJoin:
		return m.handleJoin(ms, req, now)
	case MemberBeat:
		tr, err := ms.tracker.Beat(req.Index, now)
		if err != nil {
			return MemberResponse{Index: req.Index, Err: err.Error()}
		}
		if tr.From != tr.To && tr.To == membership.Alive {
			m.setDown(req.Index, false)
			m.updateMemberGauges(ms)
		}
		return MemberResponse{Index: req.Index, Epoch: m.Epoch(), Version: ms.tracker.View().Version}
	case MemberLeave:
		return m.handleLeave(ms, req, now)
	default:
		return MemberResponse{Index: -1, Err: fmt.Sprintf("dist: unknown member op %d", req.Op)}
	}
}

// layoutSum is what a join's Sum carries: the first 8 bytes of the digest of
// the layout a worker's store was written for, or 0 for a worker with no
// store (or a layout that does not encode).
func layoutSum(l *layout.Layout) uint64 {
	if l == nil {
		return 0
	}
	d, err := l.Digest()
	if err != nil {
		return 0
	}
	sum, _ := strconv.ParseUint(d[:16], 16, 64)
	return sum
}

func (m *Master) handleJoin(ms *membershipState, req *MemberRequest, now time.Time) MemberResponse {
	if req.Addr == "" && req.Index < 0 {
		m.m.joinRejects.Inc()
		return MemberResponse{Index: -1, Err: "dist: join needs an advertised address or an explicit index"}
	}
	ms.joinMu.Lock()
	defer ms.joinMu.Unlock()
	// Resolve the slot this join lands on and check, before membership
	// mutates, that the worker can serve what the placement puts there: a
	// worker missing those partitions would fail every scan sent to it. A
	// store holds only epoch 0 of the layout it was written for.
	idx := req.Index
	if idx < 0 {
		for _, mem := range ms.tracker.View().Members {
			if mem.Addr == req.Addr {
				idx = mem.Index
				break
			}
		}
	}
	if idx >= 0 && len(membership.HostedIDs(m.Placement(), idx)) > 0 {
		v, why := m.view.Load(), ""
		switch {
		case req.Sum == 0:
			why = "the worker has no store"
		case v.epoch != 0:
			why = fmt.Sprintf("a store holds epoch 0 and the master serves epoch %d", v.epoch)
		case req.Sum != layoutSum(v.router.Layout()):
			why = fmt.Sprintf("the worker's store is of layout %016x, not the master's", req.Sum)
		}
		if why != "" {
			m.m.joinRejects.Inc()
			return MemberResponse{Index: -1, Err: fmt.Sprintf("dist: join rejected for slot %d, which hosts partitions: %s", idx, why)}
		}
	}
	mem, tr, err := ms.tracker.Join(idx, req.Addr, now)
	if err != nil {
		m.m.joinRejects.Inc()
		return MemberResponse{Index: -1, Err: err.Error()}
	}
	if mem.Index >= m.NumWorkers() {
		m.addWorker(mem.Addr)
	} else if req.Addr != "" {
		m.slot(mem.Index).link.moveTo(req.Addr)
	}
	m.setDown(mem.Index, false)
	m.m.memberJoins.Inc()
	m.updateMemberGauges(ms)
	slog.Info("worker joined", "worker", mem.Index, "addr", mem.Addr, "from", tr.From.String())
	return MemberResponse{Index: mem.Index, Epoch: m.Epoch(), Version: ms.tracker.View().Version}
}

func (m *Master) handleLeave(ms *membershipState, req *MemberRequest, now time.Time) MemberResponse {
	if _, err := ms.tracker.Leave(req.Index, now); err != nil {
		return MemberResponse{Index: req.Index, Err: err.Error()}
	}
	m.m.memberLeaves.Inc()
	m.updateMemberGauges(ms)
	// Drain synchronously. The leave RPC answers only when the worker holds
	// nothing the placement needs — the worker can then shut down without
	// any query ever missing rows.
	if _, err := m.Rebalance(ms.ctx); err != nil {
		// The worker must NOT exit; revive it so it keeps serving.
		ms.tracker.Revive(req.Index, m.clock.Now())
		m.updateMemberGauges(ms)
		return MemberResponse{Index: req.Index, Err: fmt.Sprintf("dist: drain failed, leave aborted: %v", err)}
	}
	ms.tracker.Depart(req.Index, m.clock.Now())
	m.setDown(req.Index, true)
	m.updateMemberGauges(ms)
	slog.Info("worker left gracefully", "worker", req.Index)
	return MemberResponse{Index: req.Index, Epoch: m.Epoch(), Version: ms.tracker.View().Version}
}
