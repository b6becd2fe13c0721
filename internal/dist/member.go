package dist

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"paw/internal/layout"
	"paw/internal/membership"
)

// Elastic cluster membership (DESIGN.md §15): workers join a running master
// with a checksum-validated handshake, heartbeat through a suspect→dead
// failure detector, and leave gracefully after their data is drained away.
// The state machine itself lives in internal/membership (pure, clock-as-
// argument); this file owns the wire protocol and the glue to the fleet.
//
// Member traffic rides the client port as dedicated msgMemberReq/msgMemberResp
// frames beside the query frames.

// Member operations carried by MemberRequest.
const (
	// MemberJoin registers a worker: a fresh address gets a new slot, a
	// known address (or explicit index) revives its slot. The request's
	// checksum of hosted partition IDs must match what the master's
	// placement expects for that slot, or the join is rejected — the
	// defence against master and worker deriving different placements.
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
	// Sum is the order-independent digest of the partition IDs the worker
	// hosts (membership.Checksum; join only).
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
	// TickEvery is the failure-detector tick period once the master starts
	// (0: no background ticking — tests drive MembershipTick explicitly).
	TickEvery time.Duration
	// AutoRebalance lets ticks trigger rebalances when the placement
	// references a dead worker or a live member hosts nothing. Flapping
	// Alive↔Suspect members never trigger one: Suspect members keep their
	// placement, so the trigger condition is unchanged by a flap.
	AutoRebalance bool
	// RebalanceCooldown is the minimum spacing between automatic
	// rebalances (default 5s).
	RebalanceCooldown time.Duration
	// PayloadSource, when set, rebuilds a partition's encoded payload from
	// the master's own copy of the dataset — the fallback when no reachable
	// worker holds the partition (e.g. every replica crashed).
	PayloadSource func(layout.ID) ([]byte, int64, error)
}

func (c MembershipConfig) normalized() MembershipConfig {
	c.Detector = c.Detector.Normalized()
	if c.RebalanceCooldown <= 0 {
		c.RebalanceCooldown = 5 * time.Second
	}
	return c
}

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
	// rebalanceMu serialises rebalances; the auto path TryLocks and skips.
	rebalanceMu sync.Mutex

	mu            sync.Mutex
	lastRebalance time.Time

	ctx      context.Context
	cancel   context.CancelFunc
	stop     chan struct{}
	stopOnce sync.Once
}

func (ms *membershipState) shutdown() {
	ms.stopOnce.Do(func() {
		close(ms.stop)
		ms.cancel()
	})
}

// EnableMembership switches the master to elastic membership: the current
// fleet seeds the tracker as Alive members, and from here on workers may
// join, leave and be declared dead. Must be called before Start; the
// background tick loop (cfg.TickEvery > 0) launches with Start and stops
// with Close.
func (m *Master) EnableMembership(cfg MembershipConfig) error {
	replicas := 1
	for _, ws := range m.Placement() {
		replicas = max(replicas, len(ws))
	}
	cfg = cfg.normalized()
	ctx, cancel := context.WithCancel(context.Background())
	ms := &membershipState{
		cfg:      cfg,
		tracker:  membership.NewTracker(cfg.Detector, m.fleet.Load().addrs, time.Now()),
		replicas: replicas,
		ctx:      ctx,
		cancel:   cancel,
		stop:     make(chan struct{}),
	}
	if !m.member.CompareAndSwap(nil, ms) {
		cancel()
		return fmt.Errorf("dist: membership is already enabled")
	}
	return nil
}

// membershipView snapshots the current membership (ok=false when membership
// is not enabled). Diagnostic/test surface.
func (m *Master) membershipView() (membership.View, bool) {
	ms := m.member.Load()
	if ms == nil {
		return membership.View{}, false
	}
	return ms.tracker.View(), true
}

// MembershipTick advances the failure detector to now: silent members go
// Suspect then Dead, dead workers are deprioritised on the scatter path, and
// — with AutoRebalance — a rebalance is kicked off when the placement needs
// one. Exported so deterministic tests drive the clock explicitly; the
// background loop calls it with the wall clock.
func (m *Master) MembershipTick(now time.Time) []membership.Transition {
	ms := m.member.Load()
	if ms == nil {
		return nil
	}
	trs := ms.tracker.Tick(now)
	f := m.fleet.Load()
	for _, tr := range trs {
		if tr.Index >= len(f.down) {
			continue
		}
		switch tr.To {
		case membership.Dead:
			f.down[tr.Index].Store(true)
			slog.Warn("worker declared dead", "worker", tr.Index, "addr", tr.Addr)
		case membership.Alive:
			f.down[tr.Index].Store(false)
		}
	}
	if len(trs) > 0 {
		m.updateMemberGauges(ms)
	}
	if ms.cfg.AutoRebalance {
		m.maybeAutoRebalance(ms, now)
	}
	return trs
}

func (m *Master) memberTickLoop(ms *membershipState) {
	defer m.wg.Done()
	t := time.NewTicker(ms.cfg.TickEvery)
	defer t.Stop()
	for {
		select {
		case <-ms.stop:
			return
		case now := <-t.C:
			m.MembershipTick(now)
		}
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
	ms.mu.Lock()
	cooling := now.Sub(ms.lastRebalance) < ms.cfg.RebalanceCooldown
	ms.mu.Unlock()
	if cooling || !m.needsRebalance(ms) {
		return
	}
	if !ms.rebalanceMu.TryLock() {
		return // one is already running
	}
	ms.rebalanceMu.Unlock()
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		if _, err := m.Rebalance(ms.ctx); err != nil {
			slog.Warn("auto-rebalance failed", "err", err)
		}
	}()
}

// handleMember executes one membership operation.
func (m *Master) handleMember(req *MemberRequest) MemberResponse {
	ms := m.member.Load()
	if ms == nil {
		return MemberResponse{Index: -1, Err: "dist: membership is not enabled on this master"}
	}
	now := time.Now()
	switch req.Op {
	case MemberJoin:
		return m.handleJoin(ms, req, now)
	case MemberBeat:
		tr, err := ms.tracker.Beat(req.Index, now)
		if err != nil {
			return MemberResponse{Index: req.Index, Err: err.Error()}
		}
		if tr.From != tr.To && tr.To == membership.Alive {
			f := m.fleet.Load()
			if req.Index < len(f.down) {
				f.down[req.Index].Store(false)
			}
			m.updateMemberGauges(ms)
		}
		return MemberResponse{Index: req.Index, Epoch: m.Epoch(), Version: ms.tracker.View().Version}
	case MemberLeave:
		return m.handleLeave(ms, req, now)
	default:
		return MemberResponse{Index: -1, Err: fmt.Sprintf("dist: unknown member op %d", req.Op)}
	}
}

func (m *Master) handleJoin(ms *membershipState, req *MemberRequest, now time.Time) MemberResponse {
	if req.Addr == "" && req.Index < 0 {
		m.m.joinRejects.Inc()
		return MemberResponse{Index: -1, Err: "dist: join needs an advertised address or an explicit index"}
	}
	ms.joinMu.Lock()
	defer ms.joinMu.Unlock()
	// Resolve the slot this join lands on so the hosted-partition checksum
	// can be validated BEFORE membership mutates: a worker whose partition
	// set disagrees with the master's placement would silently miss rows on
	// every scan, which is exactly the failure mode the handshake exists to
	// catch.
	idx := req.Index
	if idx < 0 {
		for _, mem := range ms.tracker.View().Members {
			if mem.Addr == req.Addr {
				idx = mem.Index
				break
			}
		}
	}
	expected := membership.Checksum(nil)
	if idx >= 0 {
		expected = membership.Checksum(membership.HostedIDs(m.Placement(), idx))
	}
	if req.Sum != expected {
		m.m.joinRejects.Inc()
		slot := "a fresh slot"
		if idx >= 0 {
			slot = fmt.Sprintf("slot %d", idx)
		}
		return MemberResponse{Index: -1, Err: fmt.Sprintf(
			"dist: join rejected for %s: worker's hosted-partition digest %016x does not match the %016x the master's placement expects — master and worker derived different placements (check that -workers, -replicas and the layout flags agree on both sides)",
			slot, req.Sum, expected)}
	}
	mem, tr, err := ms.tracker.Join(idx, req.Addr, now)
	if err != nil {
		m.m.joinRejects.Inc()
		return MemberResponse{Index: -1, Err: err.Error()}
	}
	if mem.Index >= m.NumWorkers() {
		m.addWorker(mem.Addr)
	} else if req.Addr != "" {
		m.setWorkerAddr(mem.Index, req.Addr)
	}
	f := m.fleet.Load()
	if mem.Index < len(f.down) {
		f.down[mem.Index].Store(false)
	}
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
		ms.tracker.Revive(req.Index, time.Now())
		m.updateMemberGauges(ms)
		return MemberResponse{Index: req.Index, Err: fmt.Sprintf("dist: drain failed, leave aborted: %v", err)}
	}
	ms.tracker.Depart(req.Index, time.Now())
	f := m.fleet.Load()
	if req.Index < len(f.down) {
		f.down[req.Index].Store(true)
	}
	m.updateMemberGauges(ms)
	slog.Info("worker left gracefully", "worker", req.Index)
	return MemberResponse{Index: req.Index, Epoch: m.Epoch(), Version: ms.tracker.View().Version}
}
