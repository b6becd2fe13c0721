package dist

import (
	"bytes"
	"fmt"
	"net"
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
	// scanHook, when set, observes every kernel scan. Test-only.
	scanHook func(layout.ID)
	// store is where epoch 0's tables come from.
	store *blockstore.Store

	mu sync.Mutex
	// views maps layout epochs to the tables servable under them (DESIGN.md
	// §13). Epoch 0 holds the partitions the worker was assigned, each nil
	// until a request first names it and lookup takes it from store;
	// migrations install later epochs partition by partition — as aliases of
	// tables the worker already holds (renamed partitions move zero bytes) or
	// from shipped payloads — and the master retires an epoch once no
	// in-flight query can still reference it, which releases every table no
	// later epoch aliases.
	views map[uint64]map[layout.ID]*colstore.Table
	// srv serves the worker's sessions.
	srv server
	// m is the optional worker telemetry (SetMetrics).
	m workerMetrics
}

// NewWorker builds a worker serving the assigned partitions of store as
// layout epoch 0, each taken from the store the first time a scan, fetch or
// alias names it. A nil store makes an empty worker (a joiner that receives
// its partitions by install).
func NewWorker(store *blockstore.Store, assigned []layout.ID) *Worker {
	base := make(map[layout.ID]*colstore.Table, len(assigned))
	if store != nil {
		for _, id := range assigned {
			base[id] = nil
		}
	}
	return &Worker{
		scanPool: parbuild.New(0),
		views:    map[uint64]map[layout.ID]*colstore.Table{0: base},
		store:    store,
	}
}

// lookup resolves (epoch, id) to the table to scan. It locks per partition
// rather than per batch: installs write the next epoch's map while planFor
// already serves installed partitions from it. An epoch-0 table not yet taken
// from the store is read outside the mutex, as installs decode, and kept
// unless epoch 0 retired meanwhile, which the second lookup then reports.
func (w *Worker) lookup(epoch uint64, id layout.ID) (*colstore.Table, error) {
	w.mu.Lock()
	v, ok := w.views[epoch]
	tab, hosted := v[id]
	w.mu.Unlock()
	switch {
	case !ok:
		return nil, fmt.Errorf("worker has no layout epoch %d", epoch)
	case !hosted:
		return nil, fmt.Errorf("worker does not host partition %d in epoch %d", id, epoch)
	case tab != nil:
		return tab, nil
	}
	sp, err := w.store.Partition(id)
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	if v, ok := w.views[epoch]; ok && v[id] == nil {
		v[id] = sp.Table
	}
	w.mu.Unlock()
	return w.lookup(epoch, id)
}

// readAhead takes from the store, on the scan pool at once, the epoch-0
// tables of ids that no request has taken yet, so that a batch's first reads
// of a partition-file store decode side by side rather than one after another
// in execBatch's loop. A table that fails to read is left to the loop's lookup
// to report.
func (w *Worker) readAhead(epoch uint64, ids []layout.ID) {
	if epoch != 0 || w.store == nil {
		return
	}
	var unread []layout.ID
	w.mu.Lock()
	for _, id := range ids {
		if tab, hosted := w.views[0][id]; hosted && tab == nil {
			unread = append(unread, id)
		}
	}
	w.mu.Unlock()
	if len(unread) > 1 {
		w.scanPool.Fan(w.scanPool.RootSlot(), len(unread), func(i, _ int) { w.lookup(0, unread[i]) })
	}
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
	return w.srv.serve(l, "worker", w.serveConn, func() { w.m.dropped.Inc() })
}

// serveConn runs one master session: scan and admin frames pipeline over it.
func (w *Worker) serveConn(c net.Conn) error {
	w.m.activeConns.Add(1)
	defer w.m.activeConns.Add(-1)
	return serve.ServeConn(c, workerMaxInflight, func(typ byte, payload []byte) (byte, serve.Marshaler, error) {
		switch typ {
		case msgScanReq:
			var req ScanRequest
			if err := req.UnmarshalWire(payload); err != nil {
				return 0, nil, err
			}
			resp := w.execBatch(req)
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

// execBatch runs one scan batch; every batch a worker is sent runs its own
// kernel passes (nothing coalesces batches, DESIGN.md §12). A per-partition
// failure stops the batch and names the failing partition, but the telemetry
// for the partitions already scanned is flushed regardless — a partial batch
// still did real I/O. The wire deadline is honored between partitions: work
// the master has already abandoned is dropped instead of scanned.
func (w *Worker) execBatch(req ScanRequest) ScanResponse {
	w.m.scans.Inc()
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
	w.readAhead(req.Epoch, req.IDs)
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
	return resp
}

// Ready reports whether the worker can serve scans — it is listening and not
// closed. The /readyz endpoint of pawworker is built on it.
func (w *Worker) Ready() (bool, string) {
	switch started, closed := w.srv.state(); {
	case closed:
		return false, "worker is closed"
	case !started:
		return false, "worker is not serving yet"
	}
	return true, "ok"
}

// Close stops the listener, terminates live sessions (masters park
// connections in a frame read between queries — they observe the reset and
// redial) and waits for the serving goroutines to finish. Close is idempotent.
func (w *Worker) Close() error { return w.srv.close() }
