package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"paw/internal/dist"
	"paw/internal/geom"
	"paw/internal/kdtree"
	"paw/internal/layout"
	"paw/internal/qdtree"
	"paw/internal/router"
	"paw/internal/serve"
	"paw/internal/sqlrew"
	"paw/internal/trace"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// spanSelf adds to self, per span name, the self time of every span of one
// query: the span's duration minus the union of the intervals its children
// cover inside it. It returns the root span's duration. Worker spans come
// from the same process here, so all spans share one clock.
func spanSelf(spans []trace.Span, self map[string]int64) (root int64) {
	children := make(map[uint32][]trace.Span, len(spans))
	for _, sp := range spans {
		children[sp.Parent] = append(children[sp.Parent], sp)
	}
	for _, sp := range spans {
		if sp.Parent == 0 {
			root = sp.Dur
		}
		kids := children[sp.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, end := int64(0), sp.Start
		for _, k := range kids {
			lo, hi := max(k.Start, end), min(k.Start+k.Dur, sp.Start+sp.Dur)
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		self[sp.Name] += sp.Dur - covered
	}
	return root
}

// tracedPass is the per-layer decomposition the program itself can give:
// single-client passes over the replayed statements in which every other
// statement is sent with EXPLAIN, and the mean per query of every span name's
// self time. The untraced statements of the same passes are the reference
// trace.overhead_pct compares against: the same cache state, the same
// seconds (the accounting pass ran cold, so it cannot be that reference).
// The parity swaps each pass, and short lists are passed several times, until
// each side has about minTracedQueries answers.
func (d *driver) tracedPass(ctx context.Context, m metrics) {
	const minTracedQueries = 2000
	reps := (2*minTracedQueries + d.in.replay - 1) / d.in.replay
	ctx, cancel := context.WithTimeout(ctx, opTimeout+time.Duration(reps*d.in.replay)*10*time.Millisecond)
	defer cancel()
	self := make(map[string]int64)
	var roots int64
	var wall [2]time.Duration // untraced, traced
	var count [2]int
	var t tally
	for r := 0; r < reps; r++ {
		for i := 0; i < d.in.replay; i++ {
			explain := (i+r)%2 == 1
			t0 := time.Now()
			resp, _ := d.query(ctx, d.c.clients[0], i, explain, &t)
			side := 0
			if explain {
				side = 1
				roots += spanSelf(resp.Spans, self)
			}
			wall[side] += time.Since(t0)
			count[side]++
		}
	}
	d.merge(t)
	perQuery := func(ns int64) float64 { return float64(ns) / 1e3 / float64(count[1]) }
	m.set("dist.client_hop_us", "us", perQuery(int64(wall[1])-roots))
	m.set("dist.query_self_us", "us", perQuery(self["query"]))
	m.set("serve.admission_wait_us", "us", perQuery(self["admission"]))
	m.set("router.route_span_us", "us", perQuery(self["route"]))
	m.set("dist.scatter_self_us", "us", perQuery(self["scatter"]))
	m.set("dist.rpc_self_us", "us", perQuery(self["rpc"]))
	m.set("dist.worker_batch_self_us", "us", perQuery(self["worker_batch"]))
	m.set("colstore.scan_span_us", "us", perQuery(self["scan"]))
	m.set("trace.traced_latency_us", "us", perQuery(int64(wall[1])))
	untraced := float64(wall[0]) / float64(count[0])
	m.set("trace.overhead_pct", "%", 100*(float64(wall[1])/float64(count[1])/untraced-1))
}

// frameHeader is the size of a serve frame header (type, seq, length, crc);
// serve.ReadFrame takes a pointer to an array of exactly that size.
const frameHeader = 1 + 8 + 4 + 4

// probeLayers times calls from the benchmark into each layer's public
// functions, one call per statement, on one goroutine: what a layer costs
// alone, next to what the spans say it costs inside a query.
func (d *driver) probeLayers(m metrics) error {
	stmts := d.in.stmts[:d.in.replay]
	n := float64(len(stmts))
	perQuery := func(t time.Duration) float64 { return micros(t) / n }

	rw, err := sqlrew.New(d.in.names)
	if err != nil {
		return err
	}
	boxes := make([]geom.Box, 0, len(stmts))
	t0 := time.Now()
	for _, sql := range stmts {
		ranges, err := rw.RewriteSQL(sql)
		if err != nil {
			return fmt.Errorf("rewriting %q: %w", sql, err)
		}
		boxes = append(boxes, ranges...)
	}
	m.set("sqlrew.rewrite_us", "us", perQuery(time.Since(t0)))
	m.set("router.subqueries_per_query", "count", float64(len(boxes))/n)

	rm := d.c.master.Router()
	plans := make([]router.Plan, len(boxes))
	parts := 0
	t0 = time.Now()
	for i, b := range boxes {
		if plans[i], err = rm.RouteRange(b); err != nil {
			return err
		}
	}
	m.set("router.route_range_us", "us", perQuery(time.Since(t0)))
	for _, p := range plans {
		parts += p.NumScans()
	}
	m.set("router.partitions_per_query", "count", float64(parts)/n)

	// One scan request per routed range through the wire codec and the frame
	// codec and back, over a buffer: the CPU cost of the protocol without a
	// socket.
	var payload, frame, scratch []byte
	var hdr [frameHeader]byte
	t0 = time.Now()
	for i, p := range plans {
		req := dist.ScanRequest{Query: boxes[i], IDs: p.Ranges[0].Parts, Seq: uint64(i)}
		payload = req.AppendWire(payload[:0])
		frame = serve.AppendFrame(frame[:0], 1, req.Seq, payload)
		_, _, body, err := serve.ReadFrame(bytes.NewReader(frame), &hdr, scratch)
		if err != nil {
			return err
		}
		scratch = body
		var back dist.ScanRequest
		if err := back.UnmarshalWire(body); err != nil {
			return err
		}
	}
	m.set("dist.wire_codec_us", "us", perQuery(time.Since(t0)))

	t0 = time.Now()
	for _, sql := range stmts {
		if _, err := d.c.master.Query(sql); err != nil {
			return fmt.Errorf("master query %q: %w", sql, err)
		}
	}
	m.set("dist.master_query_us", "us", perQuery(time.Since(t0)))

	// The storage layer alone: every plan's partitions scanned serially.
	var rowsScanned, matched, read, skipped, zoneSkipped int64
	t0 = time.Now()
	for i, p := range plans {
		ids := p.Ranges[0].Parts
		st, err := d.c.store.ScanAll(ids, boxes[i])
		if err != nil {
			return err
		}
		matched += int64(st.Matched)
		read += st.BytesRead
		skipped += st.BytesSkipped
		zoneSkipped += int64(st.GroupsZoneSkipped)
		for _, id := range ids {
			rowsScanned += d.c.layout.Parts[id].FullRows
		}
	}
	scan := time.Since(t0)
	m.set("blockstore.scan_us_per_query", "us", perQuery(scan))
	m.set("colstore.scan_mb_per_s", "MB/s", float64(read)/1e6/scan.Seconds())
	m.set("colstore.bytes_read_per_query", "bytes", float64(read)/n)
	m.set("colstore.bytes_skipped_per_query", "bytes", float64(skipped)/n)
	m.set("colstore.groups_zone_skipped_per_query", "count", float64(zoneSkipped)/n)
	m.set("colstore.rows_scanned_per_result_row", "ratio", float64(rowsScanned)/float64(max(matched, 1)))

	var encoded, raw int64
	for _, p := range d.c.layout.Parts {
		sp, err := d.c.store.Partition(p.ID)
		if err != nil {
			return err
		}
		encoded += sp.Table.EncodedBytes()
		raw += sp.Table.Bytes()
	}
	m.set("colstore.encoded_bytes_per_raw_byte", "ratio", float64(encoded)/float64(raw))
	return nil
}

// modelRows is the cost model's answer (Eq. 1) for the replayed statements
// on a layout routed over the full dataset, in rows per query.
func modelRows(l *layout.Layout, queries []geom.Box) float64 {
	var bytes int64
	for _, q := range queries {
		bytes += l.QueryCost(q, nil)
	}
	return float64(bytes) / float64(l.RowBytes) / float64(len(queries))
}

// baselines builds the paper's two comparison layouts on the same sample and
// reports their modelled cost on the future statements next to PAW's
// (Table IV, from cost-model calls only). It needs the raw dataset, so it
// runs before the dataset is dropped, and outside setup_s.
func baselines(in *inputs, paw *layout.Layout, m metrics) {
	qd := qdtree.Build(in.data, in.sample, in.domain, in.hist.Boxes(), qdtree.Params{MinRows: in.minRows()})
	qd.RouteParallel(in.data, runtime.NumCPU())
	kd := kdtree.Build(in.data, in.sample, in.domain, kdtree.Params{MinRows: in.minRows()})
	kd.RouteParallel(in.data, runtime.NumCPU())
	m.set("layout.model_rows_per_query", "rows", modelRows(paw, in.future))
	m.set("qdtree.model_rows_per_query", "rows", modelRows(qd, in.future))
	m.set("kdtree.model_rows_per_query", "rows", modelRows(kd, in.future))
}
