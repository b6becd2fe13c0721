// Package membership implements elastic cluster membership for the
// distributed serving path: a heartbeat-driven failure detector with a
// configurable suspect→dead state machine, a consistent-hashing partition
// placement whose movement between any two member sets is bounded by the
// virtual-node construction, and a minimal-movement rebalance planner that
// orders moves hottest-first under an optional byte budget, the storage
// tuner's greedy shape (§V-B) applied to membership changes.
//
// The package is deliberately pure: every transition takes the caller's
// clock as an argument and no goroutines or sockets live here, so the exact
// same state machine runs under the deterministic chaos/fuzz suites and
// under the real wall clock in internal/dist. The dist layer owns the wire
// protocol (join handshake, heartbeats, graceful leave) and the migration
// machinery that ships the planner's deltas.
package membership

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// State is one member's position in the failure-detector state machine.
//
//	Alive ──(no beat for SuspectAfter)──▶ Suspect
//	Suspect ──(no beat for DeadAfter)──▶ Dead
//	Suspect/Dead ──(beat or re-join)──▶ Alive
//	Alive ──(graceful leave)──▶ Draining ──(rebalanced away)──▶ Left
//
// Suspect members keep their placement (a flapping heartbeat must not
// thrash the rebalancer); only Dead, Draining and Left members are excluded
// from placement targets.
type State int

const (
	// Alive members heartbeat within SuspectAfter and serve scans.
	Alive State = iota
	// Suspect members missed heartbeats but may come back; they keep their
	// partitions and the scatter path merely deprioritises them.
	Suspect
	// Dead members missed heartbeats past DeadAfter; the rebalancer moves
	// their partitions to surviving members.
	Dead
	// Draining members asked to leave gracefully; they still serve scans
	// and payload fetches while the rebalancer moves their data away.
	Draining
	// Left members completed a graceful leave (or were administratively
	// removed). Their slot survives so indices stay stable, and a re-join
	// of the same address revives it.
	Left
)

// String names the state for logs and metrics labels.
func (s State) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	case Draining:
		return "draining"
	case Left:
		return "left"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Config tunes the failure detector. The zero value is normalised to the
// defaults (2s suspect, 10s dead).
type Config struct {
	// SuspectAfter is how long without a heartbeat an Alive member becomes
	// Suspect.
	SuspectAfter time.Duration
	// DeadAfter is how long without a heartbeat a member becomes Dead
	// (measured from the last beat, not from the Suspect transition).
	DeadAfter time.Duration
}

// Normalized fills zero fields with the defaults and orders the thresholds.
func (c Config) Normalized() Config {
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 2 * time.Second
	}
	if c.DeadAfter <= c.SuspectAfter {
		c.DeadAfter = 5 * c.SuspectAfter
	}
	return c
}

// Member is one worker slot. Index is stable for the lifetime of the
// cluster: slots are never compacted, so partition placements can name
// workers by index across membership changes.
type Member struct {
	Index int
	Addr  string
	State State
	// LastBeat is the clock value of the member's most recent heartbeat
	// (or join).
	LastBeat time.Time
	// JoinedAt is the clock value of the member's most recent (re-)join —
	// the rebalance settle window is measured from it.
	JoinedAt time.Time
}

// Transition records one state change applied by Tick, Join, Beat or Leave,
// for the caller's metrics and logs.
type Transition struct {
	Index    int
	Addr     string
	From, To State
}

// View is an immutable membership snapshot. Version increases on every
// state change, so consumers can cheaply detect "something changed since I
// last rebalanced".
type View struct {
	Version uint64
	Members []Member
}

// Alive lists the indices currently in Alive state, ascending.
func (v View) Alive() []int { return v.inStates(Alive) }

// Placeable lists the indices that should hold data: Alive and Suspect
// members (a flapping member keeps its placement — hysteresis against
// rebalance thrash), ascending.
func (v View) Placeable() []int { return v.inStates(Alive, Suspect) }

// Reachable lists the indices worth sending scans or fetches to: everything
// except Dead and Left, ascending.
func (v View) Reachable() []int { return v.inStates(Alive, Suspect, Draining) }

func (v View) inStates(states ...State) []int {
	var out []int
	for _, m := range v.Members {
		for _, s := range states {
			if m.State == s {
				out = append(out, m.Index)
				break
			}
		}
	}
	return out
}

// Member returns the member at index, or false when the index is unknown.
func (v View) Member(index int) (Member, bool) {
	if index < 0 || index >= len(v.Members) {
		return Member{}, false
	}
	return v.Members[index], true
}

// Tracker is the membership state machine. All methods are safe for
// concurrent use; all transitions take the caller's clock so deterministic
// tests can drive time explicitly.
type Tracker struct {
	mu      sync.Mutex
	cfg     Config
	members []Member
	version uint64
}

// NewTracker builds a tracker with cfg (normalised) and one Alive member
// per seed address, all stamped with now. Seed members model the statically
// configured fleet the master booted with.
func NewTracker(cfg Config, seedAddrs []string, now time.Time) *Tracker {
	t := &Tracker{cfg: cfg.Normalized()}
	for i, addr := range seedAddrs {
		t.members = append(t.members, Member{
			Index: i, Addr: addr, State: Alive, LastBeat: now, JoinedAt: now,
		})
	}
	return t
}

// Config returns the normalised failure-detector configuration.
func (t *Tracker) Config() Config { return t.cfg }

// View snapshots the current membership.
func (t *Tracker) View() View {
	t.mu.Lock()
	defer t.mu.Unlock()
	return View{Version: t.version, Members: append([]Member(nil), t.members...)}
}

// Join registers a member. A known address (or a valid explicit index)
// revives its existing slot — whatever state it was in — and a new address
// with index < 0 appends a fresh slot. An explicit index that names a slot
// with a different address is an error: indices are identities, not hints.
// The returned transition reports the slot's state change (From == To for
// a brand-new slot joining Alive is reported as Left→Alive).
func (t *Tracker) Join(index int, addr string, now time.Time) (Member, Transition, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if index < 0 {
		for i := range t.members {
			if t.members[i].Addr == addr {
				index = i
				break
			}
		}
	}
	if index >= 0 {
		if index >= len(t.members) {
			return Member{}, Transition{}, fmt.Errorf("membership: join names unknown index %d (fleet has %d slots)", index, len(t.members))
		}
		m := &t.members[index]
		if m.Addr != addr && addr != "" {
			if m.State != Left && m.State != Dead {
				return Member{}, Transition{}, fmt.Errorf("membership: index %d is %s at %s, refusing join from %s", index, m.State, m.Addr, addr)
			}
			// A dead or departed slot may be revived from a new address
			// (the worker restarted elsewhere).
			m.Addr = addr
		}
		tr := Transition{Index: index, Addr: m.Addr, From: m.State, To: Alive}
		m.State = Alive
		m.LastBeat, m.JoinedAt = now, now
		t.version++
		return *m, tr, nil
	}
	m := Member{Index: len(t.members), Addr: addr, State: Alive, LastBeat: now, JoinedAt: now}
	t.members = append(t.members, m)
	t.version++
	return m, Transition{Index: m.Index, Addr: addr, From: Left, To: Alive}, nil
}

// Beat records a heartbeat from index. A beat revives Suspect and Dead
// members to Alive (reported in the transition); beats from Draining
// members refresh the clock but keep them Draining. Beats from Left slots
// are errors — the member must re-join.
func (t *Tracker) Beat(index int, now time.Time) (Transition, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if index < 0 || index >= len(t.members) {
		return Transition{}, fmt.Errorf("membership: heartbeat from unknown index %d", index)
	}
	m := &t.members[index]
	if m.State == Left {
		return Transition{}, fmt.Errorf("membership: heartbeat from departed index %d; re-join first", index)
	}
	tr := Transition{Index: index, Addr: m.Addr, From: m.State, To: m.State}
	m.LastBeat = now
	if m.State == Suspect || m.State == Dead {
		m.State = Alive
		tr.To = Alive
		t.version++
	}
	return tr, nil
}

// Leave moves index to Draining (graceful leave, phase one). The dist layer
// rebalances its data away and then calls Depart.
func (t *Tracker) Leave(index int, now time.Time) (Transition, error) {
	return t.setState(index, Draining, now)
}

// Depart moves index to Left (graceful leave, phase two — its data has been
// rebalanced away).
func (t *Tracker) Depart(index int, now time.Time) (Transition, error) {
	return t.setState(index, Left, now)
}

// Revive moves index back to Alive (a leave whose rebalance failed).
func (t *Tracker) Revive(index int, now time.Time) (Transition, error) {
	return t.setState(index, Alive, now)
}

func (t *Tracker) setState(index int, s State, now time.Time) (Transition, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if index < 0 || index >= len(t.members) {
		return Transition{}, fmt.Errorf("membership: unknown index %d", index)
	}
	m := &t.members[index]
	tr := Transition{Index: index, Addr: m.Addr, From: m.State, To: s}
	if m.State != s {
		m.State = s
		m.LastBeat = now
		t.version++
	}
	return tr, nil
}

// Tick advances the failure detector to now: Alive members whose last beat
// is older than SuspectAfter become Suspect, and members older than
// DeadAfter become Dead. It returns the transitions applied, ordered by
// index. Draining and Left members never transition on ticks.
func (t *Tracker) Tick(now time.Time) []Transition {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Transition
	for i := range t.members {
		m := &t.members[i]
		if m.State != Alive && m.State != Suspect {
			continue
		}
		age := now.Sub(m.LastBeat)
		var next State
		switch {
		case age >= t.cfg.DeadAfter:
			next = Dead
		case age >= t.cfg.SuspectAfter:
			next = Suspect
		default:
			next = Alive
		}
		if next != m.State {
			out = append(out, Transition{Index: i, Addr: m.Addr, From: m.State, To: next})
			m.State = next
		}
	}
	if len(out) > 0 {
		t.version++
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}
