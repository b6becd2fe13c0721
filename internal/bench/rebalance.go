package bench

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"paw/internal/blockstore"
	"paw/internal/core"
	"paw/internal/dataset"
	"paw/internal/dist"
	"paw/internal/geom"
	"paw/internal/layout"
	"paw/internal/membership"
	"paw/internal/obs"
	"paw/internal/sqlrew"
	"paw/internal/workload"
)

// RebalanceOptions tunes the elastic-rebalance benchmark; the zero value
// means "use the defaults".
type RebalanceOptions struct {
	// Workers is the initial fleet size (default 3).
	Workers int
	// Replicas is the copies per partition (default 2).
	Replicas int
	// Rows is the dataset size (default 8000).
	Rows int
}

func (o RebalanceOptions) normalized() RebalanceOptions {
	if o.Workers <= 0 {
		o.Workers = 3
	}
	if o.Replicas <= 0 {
		o.Replicas = 2
	}
	if o.Rows <= 0 {
		o.Rows = 8000
	}
	return o
}

// RebalanceEvent is one membership event (a worker joining or gracefully
// leaving) and the live rebalance it triggered: how much data moved relative
// to the consistent-hash ideal, how long the round took, and how the query
// stream hammering the master throughout experienced it.
type RebalanceEvent struct {
	Event         string `json:"event"` // "join" or "leave"
	WorkersBefore int    `json:"workers_before"`
	WorkersAfter  int    `json:"workers_after"`
	Epoch         uint64 `json:"epoch"`

	// Movement accounting: copies shipped vs the P·R/(N+1) consistent-hash
	// ideal (for a join) or the departing worker's hosted set (for a leave).
	MovedPartitions  int     `json:"moved_partitions"`
	MovedBytes       int64   `json:"moved_bytes"`
	ReusedPartitions int     `json:"reused_partitions"`
	TotalCopies      int     `json:"total_copies"`
	IdealMoves       float64 `json:"ideal_moves"`
	MoveRatio        float64 `json:"move_ratio"` // moved / total copies

	RebalanceMillis int64 `json:"rebalance_ms"`

	// Availability: queries served concurrently with the whole event. Every
	// answered query is cross-checked against the dataset oracle; an elastic
	// cluster that stays up but answers wrong does not count as available.
	QueriesDuring int     `json:"queries_during"`
	QueryErrors   int     `json:"query_errors"`
	WrongAnswers  int     `json:"wrong_answers"`
	Availability  float64 `json:"availability"`
}

// RebalanceReport is the machine-readable elastic-membership snapshot
// written to BENCH_rebalance.json.
type RebalanceReport struct {
	Meta       Meta             `json:"meta"`
	Workers    int              `json:"workers"`
	Replicas   int              `json:"replicas"`
	Rows       int              `json:"rows"`
	Partitions int              `json:"partitions"`
	Events     []RebalanceEvent `json:"events"`
}

// RebalanceBench measures the elastic lifecycle end to end on a live
// in-process cluster: a fresh worker joins over the real wire protocol
// (handshake + heartbeats through dist.Heartbeater), the master rebalances
// with minimal movement while a query stream runs, and finally the joiner
// leaves gracefully and its partitions drain back. The report records data
// moved and query availability for both events.
func RebalanceBench(cfg Config, opt RebalanceOptions) (RebalanceReport, error) {
	opt = opt.normalized()
	rep := RebalanceReport{
		Meta:     Meta{Schema: RebalanceSchema},
		Workers:  opt.Workers,
		Replicas: opt.Replicas,
		Rows:     opt.Rows,
	}

	data := dataset.Uniform(opt.Rows, 2, cfg.Seed)
	rowIdx := make([]int, data.NumRows())
	for i := range rowIdx {
		rowIdx[i] = i
	}
	hist := workload.Uniform(data.Domain(), workload.Defaults(10, 5))
	l := core.Build(data, rowIdx, data.Domain(), hist, core.Params{MinRows: opt.Rows / 16})
	store := materialize(l, data, blockstore.Config{GroupRows: 512})
	rep.Partitions = len(l.Parts)

	ids := make([]layout.ID, len(l.Parts))
	for i, p := range l.Parts {
		ids[i] = p.ID
	}
	seedIdx := make([]int, opt.Workers)
	for w := range seedIdx {
		seedIdx[w] = w
	}
	// Ring-placed from the start, so the join delta below is the ring's true
	// minimum and not an artifact of converting from another placement rule.
	place := membership.RingPlacement(ids, seedIdx, opt.Replicas)

	f, err := uncachedFleet(l, data.Names(), store, place, opt.Workers)
	if err != nil {
		return rep, err
	}
	defer f.Close()
	m := f.Master
	reg := obs.New()
	m.SetMetrics(reg)
	if err := m.EnableMembership(dist.MembershipConfig{
		Detector: membership.Config{SuspectAfter: 5 * time.Second, DeadAfter: 20 * time.Second},
	}); err != nil {
		return rep, err
	}
	maddr, err := m.Start("127.0.0.1:0")
	if err != nil {
		return rep, err
	}

	names := data.Names()
	dom := data.Domain()
	probes := []geom.Box{dom, subBox(dom, 0, 0.5), subBox(dom, 0.5, 0.45)}
	oracle := make([]int, len(probes))
	for i, b := range probes {
		oracle[i] = data.CountInBox(b, nil)
	}

	// hammer runs the probe set against the master until stopped, counting
	// answered, failed and wrong queries, and then sets the availability. It
	// returns once its goroutine runs, so the event started next overlaps it.
	hammer := func(stop *atomic.Bool, ev *RebalanceEvent) *sync.WaitGroup {
		var wg sync.WaitGroup
		wg.Add(1)
		running := make(chan struct{})
		go func() {
			defer wg.Done()
			close(running)
			for !stop.Load() {
				for i, b := range probes {
					resp, err := m.Query(sqlrew.BoxSQL(names, b))
					ev.QueriesDuring++
					if err != nil {
						ev.QueryErrors++
						continue
					}
					if resp.Rows != oracle[i] {
						ev.WrongAnswers++
					}
				}
			}
			if ev.QueriesDuring > 0 {
				ev.Availability = float64(ev.QueriesDuring-ev.QueryErrors-ev.WrongAnswers) /
					float64(ev.QueriesDuring)
			}
		}()
		<-running
		return &wg
	}
	totalCopies := 0
	for _, ws := range place {
		totalCopies += len(ws)
	}

	// Event 1: a fresh empty worker joins over the wire and the master
	// rebalances the ring onto it.
	joinEv := RebalanceEvent{
		Event:         "join",
		WorkersBefore: opt.Workers,
		WorkersAfter:  opt.Workers + 1,
		TotalCopies:   totalCopies,
		IdealMoves:    float64(totalCopies) / float64(opt.Workers+1),
	}
	joiner := dist.NewWorker(nil, nil) // a joiner starts empty, outside the fleet
	jaddr, err := joiner.Start("127.0.0.1:0")
	defer joiner.Close()
	if err != nil {
		return rep, err
	}
	hb := dist.NewHeartbeater(maddr)
	defer hb.Close()

	var stop atomic.Bool
	wg := hammer(&stop, &joinEv)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	jresp, err := hb.Join(ctx, -1, jaddr, membership.Checksum(nil))
	if err != nil {
		cancel()
		stop.Store(true)
		wg.Wait()
		return rep, fmt.Errorf("join: %w", err)
	}
	cancel()
	hb.Start(100 * time.Millisecond)
	t0 := time.Now()
	rr, err := m.Rebalance(context.Background())
	joinEv.RebalanceMillis = time.Since(t0).Milliseconds()
	stop.Store(true)
	wg.Wait()
	if err != nil {
		return rep, fmt.Errorf("join rebalance: %w", err)
	}
	joinEv.Epoch = rr.Epoch
	joinEv.MovedPartitions = rr.MovedPartitions
	joinEv.MovedBytes = rr.MovedBytes
	joinEv.ReusedPartitions = rr.ReusedPartitions
	if joinEv.IdealMoves > 0 {
		joinEv.MoveRatio = float64(rr.MovedPartitions) / float64(totalCopies)
	}
	rep.Events = append(rep.Events, joinEv)

	// Event 2: the joiner leaves gracefully; the master drains its copies
	// back onto the surviving fleet before the leave call returns. The drain
	// must ship exactly what the joiner hosted — no more.
	hosted := membership.HostedIDs(m.Placement(), jresp.Index)
	leaveEv := RebalanceEvent{
		Event:         "leave",
		WorkersBefore: opt.Workers + 1,
		WorkersAfter:  opt.Workers,
		TotalCopies:   totalCopies,
		IdealMoves:    float64(len(hosted)),
	}
	partsBefore := reg.Snapshot().Counter(dist.MetricRebalanceParts)
	bytesBefore := reg.Snapshot().Counter(dist.MetricRebalanceBytes)

	stop.Store(false)
	wg = hammer(&stop, &leaveEv)
	ctx, cancel = context.WithTimeout(context.Background(), 60*time.Second)
	t0 = time.Now()
	_, lerr := hb.Leave(ctx)
	leaveEv.RebalanceMillis = time.Since(t0).Milliseconds()
	cancel()
	stop.Store(true)
	wg.Wait()
	if lerr != nil {
		return rep, fmt.Errorf("leave: %w", lerr)
	}
	lr, err := m.Rebalance(context.Background()) // converged: must be a no-op
	if err != nil {
		return rep, fmt.Errorf("post-leave rebalance: %w", err)
	}
	if lr.MovedPartitions != 0 {
		return rep, fmt.Errorf("post-leave rebalance moved %d copies, want a converged no-op", lr.MovedPartitions)
	}
	snap := reg.Snapshot()
	leaveEv.Epoch = m.Epoch()
	leaveEv.MovedPartitions = int(snap.Counter(dist.MetricRebalanceParts) - partsBefore)
	leaveEv.MovedBytes = snap.Counter(dist.MetricRebalanceBytes) - bytesBefore
	if leaveEv.TotalCopies > 0 {
		leaveEv.MoveRatio = float64(leaveEv.MovedPartitions) / float64(leaveEv.TotalCopies)
	}
	rep.Events = append(rep.Events, leaveEv)
	return rep, nil
}

// subBox returns the axis-aligned sub-box of dom starting at fraction lo of
// each extent and spanning fraction size.
func subBox(dom geom.Box, lo, size float64) geom.Box {
	b := geom.Box{Lo: make(geom.Point, len(dom.Lo)), Hi: make(geom.Point, len(dom.Hi))}
	for d := range dom.Lo {
		ext := dom.Hi[d] - dom.Lo[d]
		b.Lo[d] = dom.Lo[d] + lo*ext
		b.Hi[d] = b.Lo[d] + size*ext
	}
	return b
}
