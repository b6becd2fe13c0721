package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sort"
	"sync"
	"time"

	"paw/internal/blockstore"
	"paw/internal/colstore"
	"paw/internal/geom"
	"paw/internal/layout"
	"paw/internal/parbuild"
	"paw/internal/serve"
	"paw/internal/trace"
)

// workerMaxInflight bounds the scan requests one session may have executing
// concurrently. The scan pool bounds actual kernel parallelism;
// this only caps per-session queue build-up.
const workerMaxInflight = 64

// Worker hosts a subset of a store's partitions and serves ScanRequests.
// A worker only answers for the partitions assigned to it; requests for
// foreign partitions are errors (they indicate a master/placement bug).
//
// Sessions speak the multiplexed frame protocol of internal/serve and
// pipeline: requests run concurrently and responses return in completion
// order.
type Worker struct {
	// scanPool parallelises row-group scans within a partition. Fan is safe
	// for concurrent drivers, so all connections share the one bounded pool —
	// total scan parallelism stays bounded regardless of session count.
	scanPool *parbuild.Pool
	// scanners recycles scanner scratch across every table of every epoch.
	scanners colstore.ScannerPool
	// batchFlight coalesces whole identical scan batches (same epoch, same
	// partition list, same predicate class): one execution runs and every
	// waiter shares its response. The batch is the only sharing window
	// (DESIGN.md §12): identical concurrent batches walk the same ID list in
	// the same order, so nothing finer than the batch ever overlaps.
	batchFlight serve.Flight[ScanResponse]
	// scanHook, when set, observes every kernel scan actually executed (not
	// the shared attachments). Test-only.
	scanHook func(layout.ID)

	mu sync.Mutex
	// views maps layout epochs to the tables servable under them (DESIGN.md
	// §13). Epoch 0 holds the tables the worker started with; migrations
	// install later epochs partition by partition — as aliases of tables the
	// worker already holds (renamed partitions move zero bytes) or from
	// shipped payloads — and the master retires an epoch once no in-flight
	// query can still reference it, which releases every table no later
	// epoch aliases.
	views    map[uint64]map[layout.ID]*colstore.Table
	listener net.Listener
	wg       sync.WaitGroup
	closed   bool
	// conns tracks live sessions so Close can terminate connections parked
	// in a frame read (a master holds its connections open between queries;
	// without this, Close would block on wg.Wait forever).
	conns map[net.Conn]bool
	// m is the optional worker telemetry (SetMetrics).
	m workerMetrics
}

// NewWorker builds a worker serving the assigned partitions of store as
// layout epoch 0. Only the assigned tables are kept: the store itself is not
// retained, and a nil store makes an empty worker (a joiner that receives its
// partitions by install).
func NewWorker(store *blockstore.Store, assigned []layout.ID) *Worker {
	base := make(map[layout.ID]*colstore.Table, len(assigned))
	if store != nil {
		for _, id := range assigned {
			if sp, err := store.Partition(id); err == nil {
				base[id] = sp.Table
			}
		}
	}
	return &Worker{
		scanPool: parbuild.New(0),
		conns:    make(map[net.Conn]bool),
		views:    map[uint64]map[layout.ID]*colstore.Table{0: base},
	}
}

// lookup resolves (epoch, id) to the table to scan. It locks per partition
// rather than per batch: installs write the next epoch's map while planFor
// already serves installed partitions from it.
func (w *Worker) lookup(epoch uint64, id layout.ID) (*colstore.Table, error) {
	w.mu.Lock()
	v, ok := w.views[epoch]
	tab := v[id]
	w.mu.Unlock()
	switch {
	case !ok:
		return nil, fmt.Errorf("worker has no layout epoch %d", epoch)
	case tab == nil:
		return nil, fmt.Errorf("worker does not host partition %d in epoch %d", id, epoch)
	}
	return tab, nil
}

// handleAdmin executes one migration-control request under the worker mutex
// (payload decoding happens outside it: decodes are the expensive part and
// touch no shared state).
func (w *Worker) handleAdmin(req AdminRequest) AdminResponse {
	switch req.Op {
	case AdminRetire:
		w.mu.Lock()
		delete(w.views, req.Epoch)
		w.mu.Unlock()
		w.m.epochRetires.Inc()
		return AdminResponse{}
	case AdminFetch:
		tab, err := w.lookup(req.Epoch, req.ID)
		if err != nil {
			return AdminResponse{Err: fmt.Sprintf("fetching partition %d: %v", req.ID, err)}
		}
		var buf bytes.Buffer
		if err := tab.Encode(&buf); err != nil {
			return AdminResponse{Err: fmt.Sprintf("encoding partition %d: %v", req.ID, err)}
		}
		return AdminResponse{Payload: buf.Bytes(), Rows: int64(tab.NumRows())}
	case AdminInstall:
		if req.Epoch == 0 {
			return AdminResponse{Err: "cannot install into the base epoch"}
		}
		var tab *colstore.Table
		var err error
		if req.ReuseID < 0 {
			if tab, err = colstore.Decode(bytes.NewReader(req.Payload)); err != nil {
				return AdminResponse{Err: fmt.Sprintf("decoding partition %d payload (req %d): %v", req.ID, req.Seq, err)}
			}
			if int64(tab.NumRows()) != req.Rows {
				return AdminResponse{Err: fmt.Sprintf("partition %d payload has %d rows, expected %d", req.ID, tab.NumRows(), req.Rows)}
			}
			w.m.installedBytes.Add(int64(len(req.Payload)))
		} else {
			if tab, err = w.lookup(req.ReuseEpoch, req.ReuseID); err != nil {
				return AdminResponse{Err: fmt.Sprintf("aliasing partition %d: %v", req.ID, err)}
			}
			if int64(tab.NumRows()) != req.Rows {
				return AdminResponse{Err: fmt.Sprintf("alias source %d has %d rows, expected %d", req.ReuseID, tab.NumRows(), req.Rows)}
			}
		}
		w.mu.Lock()
		if w.views[req.Epoch] == nil {
			w.views[req.Epoch] = make(map[layout.ID]*colstore.Table)
		}
		w.views[req.Epoch][req.ID] = tab
		w.mu.Unlock()
		w.m.installs.Inc()
		return AdminResponse{}
	default:
		return AdminResponse{Err: fmt.Sprintf("unknown admin op %d", req.Op)}
	}
}

// epochs lists the layout epochs the worker currently serves, ascending.
// Test/diagnostic surface.
func (w *Worker) epochs() []uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]uint64, 0, len(w.views))
	for e := range w.views {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Start begins serving on addr (use "127.0.0.1:0" for tests) and returns
// the bound address.
func (w *Worker) Start(addr string) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	if err := w.Serve(l); err != nil {
		l.Close()
		return "", err
	}
	return l.Addr().String(), nil
}

// Serve begins serving scan sessions on l, which StartFleet's hook may have
// wrapped in faultnet. The worker owns l from here on and closes it on Close.
// Serving on a closed or already-started worker is an error.
func (w *Worker) Serve(l net.Listener) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errors.New("dist: worker is closed")
	}
	if w.listener != nil {
		return errors.New("dist: worker already started")
	}
	w.listener = l
	w.wg.Add(1)
	go w.acceptLoop(l)
	return nil
}

func (w *Worker) acceptLoop(l net.Listener) {
	defer w.wg.Done()
	for {
		c, err := l.Accept()
		if err != nil {
			return // listener closed
		}
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			w.serveConn(c)
		}()
	}
}

// trackConn registers a live session; it reports false when the worker is
// already closed (the connection must be rejected).
func (w *Worker) trackConn(c net.Conn) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return false
	}
	w.conns[c] = true
	w.m.activeConns.Add(1)
	return true
}

func (w *Worker) untrackConn(c net.Conn) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.conns[c] {
		delete(w.conns, c)
		w.m.activeConns.Add(-1)
	}
}

// serveConn runs one master session: scan and admin frames pipeline over it.
// A peer that does not open with the protocol preamble, or whose stream
// breaks mid-frame, is dropped and counted; a clean hang-up or the worker's
// own Close is not a drop.
func (w *Worker) serveConn(c net.Conn) {
	if !w.trackConn(c) {
		c.Close()
		return
	}
	defer w.untrackConn(c)
	defer c.Close()
	err := serve.ServeConn(c, workerMaxInflight, func(typ byte, payload []byte) (byte, serve.Marshaler, error) {
		switch typ {
		case msgScanReq:
			var req ScanRequest
			if err := req.UnmarshalWire(payload); err != nil {
				return 0, nil, err
			}
			resp := w.handle(req)
			return msgScanResp, &resp, nil
		case msgAdminReq:
			var req AdminRequest
			if err := req.UnmarshalWire(payload); err != nil {
				return 0, nil, err
			}
			resp := w.handleAdmin(req)
			return msgAdminResp, &resp, nil
		default:
			return 0, nil, fmt.Errorf("dist: unexpected worker frame type %d", typ)
		}
	})
	if err != nil && !errors.Is(err, io.EOF) && !w.isClosed() {
		w.m.dropped.Inc()
	}
}

// scanPartition runs the kernel scan of one partition under one layout epoch
// on sc, the batch's scanner.
func (w *Worker) scanPartition(sc *colstore.Scanner, epoch uint64, id layout.ID, q geom.Box) (colstore.ScanStats, error) {
	tab, err := w.lookup(epoch, id)
	if err != nil {
		return colstore.ScanStats{}, err
	}
	if w.scanHook != nil {
		w.scanHook(id)
	}
	return tab.CountParallel(q, w.scanPool, &w.scanners, sc), nil
}

// batchKey is the whole-batch sharing key: the layout epoch, the ordered
// partition list, the predicate box and whether the request is traced. Seq
// and Deadline are deliberately excluded — they vary per request but do not
// change what a clean scan returns. Traced requests only coalesce with
// traced requests: an untraced leader records no spans, and a traced waiter
// inheriting its spanless response would lose the per-partition story the
// trace exists for. Sampling keeps traced requests rare, so the split costs
// the sharing window nearly nothing.
func batchKey(req ScanRequest) string {
	b := make([]byte, 0, 9+8*len(req.IDs)+16*len(req.Query.Lo))
	if req.TraceID != 0 {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.LittleEndian.AppendUint64(b, req.Epoch)
	for _, id := range req.IDs {
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(id)))
	}
	for _, v := range req.Query.Lo {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	for _, v := range req.Query.Hi {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return string(b)
}

// handle executes one scan batch, coalescing onto an identical batch while it
// runs (its leader never waits for one). A shared result is only reused when
// it is clean: an errored leader batch (deadline drop, partition failure)
// reflects the leader's deadline and abort point, so a waiter that inherits
// one re-runs the batch under its own request instead.
func (w *Worker) handle(req ScanRequest) ScanResponse {
	w.m.scans.Inc()
	resp, shared, _ := w.batchFlight.Do(batchKey(req), func() (ScanResponse, error) {
		return w.execBatch(req), nil
	})
	if shared {
		if resp.Err != "" {
			return w.execBatch(req)
		}
		w.m.sharedScans.Add(int64(len(req.IDs)))
		if req.TraceID != 0 {
			// The spans describe the leader's kernel passes; this request
			// merely attached. Copy the fragment (the shared slice is
			// read-only) and flag its batch root so the master's trace shows
			// the coalescing.
			resp.Spans = markSharedSpans(resp.Spans)
		}
	}
	return resp
}

// markSharedSpans copies a shared batch's span fragment, annotating its root
// (Parent 0) with KeyShared. Only the mutated root's attrs are deep-copied.
func markSharedSpans(spans []trace.Span) []trace.Span {
	out := append([]trace.Span(nil), spans...)
	for i := range out {
		if out[i].Parent == 0 {
			attrs := make([]trace.Attr, 0, len(out[i].Attrs)+1)
			attrs = append(attrs, out[i].Attrs...)
			out[i].Attrs = append(attrs, trace.Attr{K: trace.KeyShared, V: 1})
		}
	}
	return out
}

// execBatch runs one scan batch for real. A per-partition failure stops the
// batch and names the failing partition, but the telemetry for the
// partitions already scanned is flushed regardless — a partial batch still
// did real I/O. The wire deadline is honored between partitions: work the
// master has already abandoned is dropped instead of scanned.
func (w *Worker) execBatch(req ScanRequest) ScanResponse {
	resp := ScanResponse{FailedPartition: -1}
	var deadline time.Time
	if req.Deadline > 0 {
		deadline = time.Unix(0, req.Deadline)
	}
	// Traced requests (TraceID != 0) record a local span fragment: a batch
	// root plus one scan span per partition, annotated with the kernel's
	// byte/group accounting and encoding mix. Untraced requests keep tq nil —
	// every span call below compiles down to a nil check.
	var tq *trace.T
	var root trace.SpanRef
	if req.TraceID != 0 {
		tq = trace.NewLocal()
		root = tq.Start("worker_batch", trace.SpanRef{})
		root.Int(trace.KeyEpoch, int64(req.Epoch))
		root.Int(trace.KeyPartitions, int64(len(req.IDs)))
	}
	// One scanner for the whole batch: a partition is ~3 row groups, so a
	// checkout per partition would cost as much as the scan it serves. Only
	// the table lookup stays per partition (lookup says why).
	sc := w.scanners.Get()
	defer w.scanners.Put(sc)
	for _, id := range req.IDs {
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			resp.Err = fmt.Sprintf("scan deadline exceeded at partition %d (req %d)", id, req.Seq)
			resp.FailedPartition = int64(id)
			w.m.deadlineDrops.Inc()
			if tq != nil {
				root.Int(trace.KeyError, 1)
			}
			break
		}
		sp := tq.Start("scan", root)
		st, err := w.scanPartition(sc, req.Epoch, id, req.Query)
		if err != nil {
			if tq != nil {
				sp.Int(trace.KeyPartition, int64(id))
				sp.Int(trace.KeyError, 1)
				sp.End()
			}
			resp.Err = err.Error()
			resp.FailedPartition = int64(id)
			w.m.errors.Inc()
			break
		}
		if tq != nil {
			sp.Int(trace.KeyPartition, int64(id))
			sp.Int(trace.KeyRows, int64(st.Matched))
			sp.Int(trace.KeyBytesRead, st.BytesRead)
			sp.Int(trace.KeyBytesSkipped, st.BytesSkipped)
			sp.Int(trace.KeyGroupsRead, int64(st.GroupsRead))
			sp.Int(trace.KeyGroupsSkipped, int64(st.GroupsSkipped))
			sp.Int(trace.KeyEncRaw, int64(st.ColsRaw))
			sp.Int(trace.KeyEncDict, int64(st.ColsDict))
			sp.Int(trace.KeyEncRLE, int64(st.ColsRLE))
			sp.Int(trace.KeyEncFOR, int64(st.ColsFOR))
			sp.End()
		}
		resp.Rows += st.Matched
		resp.BytesRead += st.BytesRead
		resp.BytesSkipped += st.BytesSkipped
		resp.GroupsRead += st.GroupsRead
		resp.GroupsSkipped += st.GroupsSkipped
	}
	if tq != nil {
		root.End()
		resp.Spans = tq.Spans()
	}
	w.m.rows.Add(int64(resp.Rows))
	w.m.bytesRead.Add(resp.BytesRead)
	w.m.bytesSkipped.Add(resp.BytesSkipped)
	w.m.groupsRead.Add(int64(resp.GroupsRead))
	w.m.groupsSkip.Add(int64(resp.GroupsSkipped))
	w.m.decodedHist.Observe(float64(resp.BytesRead))
	w.m.skippedHist.Observe(float64(resp.BytesSkipped))
	return resp
}

func (w *Worker) isClosed() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.closed
}

// Ready reports whether the worker can serve scans — it is listening and not
// closed. The /readyz endpoint of pawworker is built on it.
func (w *Worker) Ready() (bool, string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	switch {
	case w.closed:
		return false, "worker is closed"
	case w.listener == nil:
		return false, "worker is not serving yet"
	}
	return true, "ok"
}

// Close stops the listener, terminates live sessions (masters park
// connections in a frame read between queries — they observe the reset and
// redial) and waits for the serving goroutines to finish. Close is idempotent.
func (w *Worker) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	l := w.listener
	for c := range w.conns {
		c.Close()
	}
	w.mu.Unlock()
	var err error
	if l != nil {
		err = l.Close()
	}
	w.wg.Wait()
	return err
}
