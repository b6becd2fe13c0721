package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"paw/internal/obs"
)

// TestNilSafety: the disabled path — nil tracer, nil trace, zero SpanRef —
// must be a no-op at every call site the serving path threads it through.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if got := tr.Sample(false); got != nil {
		t.Fatalf("nil tracer sampled: %v", got)
	}
	if got := tr.Sample(true); got != nil {
		t.Fatalf("nil tracer forced a sample: %v", got)
	}
	tr.Finish(nil)
	if tr.Traces() != nil || tr.Exemplars() != nil {
		t.Fatal("nil tracer retained traces")
	}
	if _, ok := tr.Get(1); ok {
		t.Fatal("nil tracer found a trace")
	}

	var tq *T
	if tq.ID() != 0 {
		t.Fatal("nil trace has an ID")
	}
	ref := tq.Start("x", SpanRef{})
	ref.Int(KeyRows, 1)
	ref.End()
	tq.Attach(ref, []Span{{ID: 1, Name: "y"}})
	if tq.Spans() != nil {
		t.Fatal("nil trace recorded spans")
	}
}

// TestDisabledPathAllocs: instrumentation against a disabled tracer must not
// allocate — this is the contract that lets the serving path stay
// instrumented unconditionally.
func TestDisabledPathAllocs(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		tq := tr.Sample(false)
		root := tq.Start("query", SpanRef{})
		root.Int(KeyRows, 42)
		sp := tq.Start("scatter", root)
		sp.Int(KeyPartitions, 7)
		sp.End()
		root.End()
		tr.Finish(tq)
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkDisabledTracer is the perf-guard form of the allocation test.
func BenchmarkDisabledTracer(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tq := tr.Sample(false)
		root := tq.Start("query", SpanRef{})
		root.Int(KeyRows, int64(i))
		root.End()
		tr.Finish(tq)
	}
}

// TestSpanRecording: spans get dense IDs from 1, parents link, attrs and
// durations land.
func TestSpanRecording(t *testing.T) {
	tq := NewLocal()
	if tq.ID() == 0 {
		t.Fatal("local trace has no ID")
	}
	root := tq.Start("query", SpanRef{})
	child := tq.Start("route", root)
	child.Int(KeyRanges, 3)
	child.End()
	root.End()
	spans := tq.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].ID != 1 || spans[0].Parent != 0 || spans[0].Name != "query" {
		t.Fatalf("root span wrong: %+v", spans[0])
	}
	if spans[1].ID != 2 || spans[1].Parent != 1 || spans[1].Name != "route" {
		t.Fatalf("child span wrong: %+v", spans[1])
	}
	if len(spans[1].Attrs) != 1 || spans[1].Attrs[0] != (Attr{K: KeyRanges, V: 3}) {
		t.Fatalf("child attrs wrong: %+v", spans[1].Attrs)
	}
	if spans[0].Dur <= 0 || spans[1].Dur <= 0 {
		t.Fatalf("durations not recorded: %d, %d", spans[0].Dur, spans[1].Dur)
	}
	if spans[0].Start == 0 {
		t.Fatal("start not recorded")
	}
}

// TestAttachRemap: a worker fragment (IDs from 1, Parent 0 = requesting
// span) merges under its rpc span with IDs offset past the trace's own, and
// subsequent local spans do not collide with the merged IDs.
func TestAttachRemap(t *testing.T) {
	tq := NewLocal()
	root := tq.Start("query", SpanRef{})
	rpc := tq.Start("rpc", root) // ID 2
	remote := []Span{
		{ID: 1, Parent: 0, Name: "worker_batch"},
		{ID: 2, Parent: 1, Name: "scan", Attrs: []Attr{{K: KeyPartition, V: 7}}},
		{ID: 3, Parent: 1, Name: "scan"},
	}
	tq.Attach(rpc, remote)
	after := tq.Start("post", root)
	after.End()
	rpc.End()
	root.End()

	spans := tq.Spans()
	if len(spans) != 6 {
		t.Fatalf("got %d spans, want 6", len(spans))
	}
	// Merged fragment: offset = 2 (two local spans pre-attach).
	wb, s1, s2 := spans[2], spans[3], spans[4]
	if wb.ID != 3 || wb.Parent != 2 {
		t.Fatalf("worker_batch not remapped onto rpc: %+v", wb)
	}
	if s1.ID != 4 || s1.Parent != 3 || s2.ID != 5 || s2.Parent != 3 {
		t.Fatalf("scan spans not remapped: %+v / %+v", s1, s2)
	}
	if s1.Attrs[0].V != 7 {
		t.Fatal("attrs lost in attach")
	}
	if spans[5].ID != 6 {
		t.Fatalf("post-attach span collides: %+v", spans[5])
	}
}

// TestSampling: SampleEvery=N samples exactly one in N; force overrides.
func TestSampling(t *testing.T) {
	tr := New(Config{SampleEvery: 3})
	sampled := 0
	for i := 0; i < 30; i++ {
		if tq := tr.Sample(false); tq != nil {
			sampled++
		}
	}
	if sampled != 10 {
		t.Fatalf("sampled %d of 30, want 10", sampled)
	}
	if tr.Sample(true) == nil {
		t.Fatal("forced sample refused")
	}

	off := New(Config{}) // SampleEvery 0: only forced
	if off.Sample(false) != nil {
		t.Fatal("unforced sample on SampleEvery=0")
	}
	if off.Sample(true) == nil {
		t.Fatal("forced sample refused on SampleEvery=0")
	}
}

// TestUniqueIDs: traces from one tracer (and local traces) get distinct IDs.
func TestUniqueIDs(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		id := tr.Sample(true).ID()
		if seen[id] {
			t.Fatalf("duplicate trace ID %d", id)
		}
		seen[id] = true
	}
	if NewLocal().ID() == NewLocal().ID() {
		t.Fatal("local trace IDs collide")
	}
}

func finishOne(tr *Tracer, name string) uint64 {
	tq := tr.Sample(true)
	root := tq.Start(name, SpanRef{})
	root.End()
	tr.Finish(tq)
	return tq.ID()
}

// TestRingEviction: the ring retains the newest ringCapacity traces, newest
// first, and Get finds only the retained ones.
func TestRingEviction(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	var ids []uint64
	for i := 0; i < ringCapacity+3; i++ {
		ids = append(ids, finishOne(tr, "q"))
	}
	got := tr.Traces()
	if len(got) != ringCapacity {
		t.Fatalf("retained %d, want %d", len(got), ringCapacity)
	}
	for i, f := range got {
		want := ids[len(ids)-1-i]
		if f.ID != want {
			t.Fatalf("trace %d: ID %d, want %d (newest first)", i, f.ID, want)
		}
	}
	if _, ok := tr.Get(ids[0]); ok {
		t.Fatal("evicted trace still found")
	}
	if f, ok := tr.Get(ids[len(ids)-1]); !ok || f.ID != ids[len(ids)-1] {
		t.Fatal("retained trace not found")
	}
}

// TestFinishRootless: a trace whose root never ended still finishes, timed
// as its longest ended span; an empty trace is dropped.
func TestFinishRootless(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	tq := tr.Sample(true)
	root := tq.Start("query", SpanRef{})
	child := tq.Start("work", root)
	time.Sleep(time.Millisecond)
	child.End()
	// root never ended
	tr.Finish(tq)
	got := tr.Traces()
	if len(got) != 1 {
		t.Fatalf("retained %d, want 1", len(got))
	}
	if got[0].DurNs <= 0 {
		t.Fatal("rootless trace has no duration")
	}

	empty := tr.Sample(true)
	tr.Finish(empty)
	if len(tr.Traces()) != 1 {
		t.Fatal("empty trace was retained")
	}
}

// finishTimed finishes a trace whose root span lasted d.
func finishTimed(tr *Tracer, d time.Duration) uint64 {
	tq := tr.Sample(true)
	tq.Start("q", SpanRef{})
	tq.spans[0].Dur = int64(d)
	tr.Finish(tq)
	return tq.ID()
}

// TestExemplars: finished traces land in their latency's bucket and link the
// bucket to the last trace ID that hit it; past the last bound is overflow.
func TestExemplars(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	id1 := finishTimed(tr, 3*time.Millisecond)
	id2 := finishTimed(tr, 4*time.Millisecond)
	ex := tr.Exemplars()
	i := slices.IndexFunc(ex, func(e Exemplar) bool { return e.LeNs == 5e6 })
	if i < 0 || ex[i].Count != 2 {
		t.Fatalf("exemplars %+v: want 2 in the 5 ms bucket", ex)
	}
	if ex[i].TraceID != id2 {
		t.Fatalf("exemplar trace %d, want the latest %d (first was %d)", ex[i].TraceID, id2, id1)
	}
	last := ex[len(ex)-1]
	if !last.Overflow || last.Count != 0 {
		t.Fatalf("overflow bucket wrong: %+v", last)
	}
	finishTimed(tr, time.Minute)
	if last = tr.Exemplars()[len(ex)-1]; last.Count != 1 {
		t.Fatalf("a one-minute trace missed the overflow bucket: %+v", last)
	}
}

// TestExemplarsMatchLatencyBuckets: the exemplar buckets are the query-latency
// histogram's (obs.LatencyBuckets), so a trace lands in the bucket its
// query's latency does — a 2 s query in the one bounded at 2.5 s — and a p99
// bucket leads to a concrete trace (DESIGN.md §14).
func TestExemplarsMatchLatencyBuckets(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	ex := tr.Exemplars()
	bounds := make([]float64, 0, len(ex))
	for _, e := range ex[:len(ex)-1] {
		bounds = append(bounds, e.LeNs)
	}
	if want := obs.LatencyBuckets(); !slices.Equal(bounds, want) {
		t.Fatalf("exemplar bounds %v, latency histogram bounds %v", bounds, want)
	}
	id := finishTimed(tr, 2*time.Second)
	for _, e := range tr.Exemplars() {
		if hit := e.Count > 0; hit != (e.LeNs == 2.5e9) || hit && e.TraceID != id {
			t.Fatalf("a 2 s trace gave exemplar %+v, want it in the 2.5e9 bucket alone", e)
		}
	}
}

// TestCostLog: records serialize as schema-stamped JSONL.
func TestCostLog(t *testing.T) {
	var buf bytes.Buffer
	l := NewCostLog(&buf)
	l.Record(CostRecord{TraceID: 7, Rows: 100, BytesRead: 1 << 20, RouteNs: 5})
	l.Record(CostRecord{TraceID: 8, Cached: true})
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var rec CostRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Schema != CostRecordSchema {
		t.Fatalf("schema %q, want %q", rec.Schema, CostRecordSchema)
	}
	if rec.TraceID != 7 || rec.Rows != 100 || rec.BytesRead != 1<<20 || rec.RouteNs != 5 {
		t.Fatalf("record round trip lost fields: %+v", rec)
	}

	var nilLog *CostLog
	nilLog.Record(CostRecord{})
	if err := nilLog.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := nilLog.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteTree: rendering indents children under parents, roots orphans,
// and prints attributes by name.
func TestWriteTree(t *testing.T) {
	spans := []Span{
		{ID: 1, Parent: 0, Name: "query", Dur: int64(2 * time.Millisecond)},
		{ID: 2, Parent: 1, Name: "scatter", Start: 10, Dur: int64(time.Millisecond)},
		{ID: 3, Parent: 2, Name: "rpc", Start: 20, Attrs: []Attr{{K: KeyWorker, V: 1}}},
		{ID: 9, Parent: 42, Name: "orphan", Start: 30}, // parent never recorded
	}
	var buf bytes.Buffer
	WriteTree(&buf, 0xabc, spans)
	out := buf.String()
	want := []string{
		"trace 0x0000000000000abc (4 spans)",
		"query  2ms",
		"  scatter  1ms",
		"    rpc  0s  [worker=1]",
		"orphan  0s",
	}
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Fatalf("output missing %q:\n%s", w, out)
		}
	}

	buf.Reset()
	WriteTree(&buf, 1, nil)
	if !strings.Contains(buf.String(), "no spans") {
		t.Fatalf("empty render: %q", buf.String())
	}
}

// TestWriteTreeIDFindsTheTrace: the ID on WriteTree's first line, passed to
// /traces?id= as printed, serves that trace — for an ID whose hex digits are
// all decimal digits too, which must not be read as a decimal number.
func TestWriteTreeIDFindsTheTrace(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	h := Handler(tr)
	for _, want := range []uint64{0x1234567890123456, 0xabc} {
		tq := tr.Sample(true)
		tq.id = want
		tq.Start("query", SpanRef{}).End()
		tr.Finish(tq)
		f, ok := tr.Get(want)
		if !ok {
			t.Fatalf("trace %#x not retained", want)
		}
		var buf bytes.Buffer
		WriteTree(&buf, f.ID, f.Spans)
		var id string
		if _, err := fmt.Sscanf(buf.String(), "trace %s", &id); err != nil {
			t.Fatalf("first line %q: %v", buf.String(), err)
		}
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", "/traces?id="+id, nil))
		if rr.Code != 200 {
			t.Fatalf("/traces?id=%s: status %d: %s", id, rr.Code, rr.Body)
		}
		var got Finished
		if err := json.Unmarshal(rr.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		if got.ID != want || len(got.Spans) != len(f.Spans) {
			t.Fatalf("/traces?id=%s served trace %#x with %d spans, want %#x with %d", id, got.ID, len(got.Spans), want, len(f.Spans))
		}
	}
}

// TestKeyStrings: every defined key renders a stable name (the wire enum and
// the rendering must agree); the retired values — after KeyRows and before
// KeyCacheHit — render unknown.
func TestKeyStrings(t *testing.T) {
	for k := KeyWorker; k <= KeyPartial; k++ {
		if k == KeyRows+1 || k == KeyCacheHit-1 {
			if k.String() != "unknown" {
				t.Fatalf("retired key %d renders %q", k, k.String())
			}
			continue
		}
		if k.String() == "unknown" {
			t.Fatalf("key %d has no name", k)
		}
	}
	if Key(200).String() != "unknown" {
		t.Fatal("undefined key must render unknown")
	}
}

// TestHTTPHandler: /traces serves the document, ?id= serves one trace, and a
// nil tracer serves an empty document.
func TestHTTPHandler(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	id := finishOne(tr, "q")
	finishOne(tr, "r")

	h := Handler(tr)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/traces", nil))
	var doc struct {
		Traces    []Finished `json:"traces"`
		Exemplars []Exemplar `json:"exemplars"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Traces) != 2 || len(doc.Exemplars) == 0 {
		t.Fatalf("document: %d traces, %d exemplars", len(doc.Traces), len(doc.Exemplars))
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/traces?limit=1", nil))
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Traces) != 1 {
		t.Fatalf("limit=1 returned %d traces", len(doc.Traces))
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/traces?id="+strconvUint(id), nil))
	var f Finished
	if err := json.Unmarshal(rr.Body.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	if f.ID != id {
		t.Fatalf("?id returned trace %d, want %d", f.ID, id)
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/traces?id=999", nil))
	if rr.Code != 404 {
		t.Fatalf("missing trace: status %d, want 404", rr.Code)
	}

	rr = httptest.NewRecorder()
	Handler(nil).ServeHTTP(rr, httptest.NewRequest("GET", "/traces", nil))
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Traces) != 0 {
		t.Fatal("nil tracer served traces")
	}

	var buf bytes.Buffer
	if err := WriteJSON(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Traces) != 2 {
		t.Fatalf("WriteJSON: %d traces, want 2", len(doc.Traces))
	}
}

func strconvUint(v uint64) string {
	b, _ := json.Marshal(v)
	return string(b)
}
