package trace

import (
	"bufio"
	"encoding/json"
	"io"
	"log/slog"
	"reflect"
	"strings"
	"sync"
)

// CostRecordSchema versions the JSONL cost-record format. Bump on any
// field-semantics change; consumers (the future partition advisor's training
// pipeline) dispatch on it.
const CostRecordSchema = "paw/cost-record/v1"

// CostRecord is one measured query execution: the layout and query-shape
// features on the left-hand side of a cost model and the measured stage
// costs on the right. A master with a cost log writes one record, as one
// JSON line, for every query it answers — sampled for tracing or not (an
// untraced query has TraceID 0); a failed query writes none. Its slow-query
// line logs the same record.
type CostRecord struct {
	Schema  string `json:"schema"`
	TraceID uint64 `json:"trace_id"`
	// UnixNs is the query's start on the master clock.
	UnixNs int64  `json:"unix_ns"`
	SQL    string `json:"sql,omitempty"`

	// Layout features.
	Epoch            uint64 `json:"epoch"`
	LayoutPartitions int    `json:"layout_partitions"`
	Dims             int    `json:"dims"`

	// Query shape.
	Ranges            int `json:"ranges"`
	PartitionsTouched int `json:"partitions_touched"`
	// Workers is the fleet's worker-slot count when the query ran, not the
	// number of workers the query reached.
	Workers int `json:"workers"`

	// Measured outcome.
	Rows         int   `json:"rows"`
	BytesRead    int64 `json:"bytes_read"`
	BytesSkipped int64 `json:"bytes_skipped"`
	Cached       bool  `json:"cached,omitempty"`
	Partial      bool  `json:"partial,omitempty"`
	NextView     bool  `json:"next_view,omitempty"`

	// Stage costs in nanoseconds. Zero stages did not run (e.g. a cache hit
	// never routes or scatters).
	TotalNs   int64 `json:"total_ns"`
	RouteNs   int64 `json:"route_ns"`
	ScatterNs int64 `json:"scatter_ns"`
}

// LogValue renders the record as a group of its fields under their JSON
// names, schema stamped, so a log line carrying it reads as the cost log's.
func (r CostRecord) LogValue() slog.Value {
	r.Schema = CostRecordSchema
	v := reflect.ValueOf(r)
	attrs := make([]slog.Attr, v.NumField())
	for i := range attrs {
		name, _, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ",")
		attrs[i] = slog.Any(name, v.Field(i).Interface())
	}
	return slog.GroupValue(attrs...)
}

// CostLog appends schema-versioned JSONL cost records to a writer. The nil
// *CostLog drops records, so callers thread it unconditionally. Writes are
// buffered; call Flush (or Close) before reading the output.
type CostLog struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	c   io.Closer
	enc *json.Encoder
}

// NewCostLog wraps w. If w is also an io.Closer, Close closes it.
func NewCostLog(w io.Writer) *CostLog {
	bw := bufio.NewWriter(w)
	l := &CostLog{bw: bw, enc: json.NewEncoder(bw)}
	if c, ok := w.(io.Closer); ok {
		l.c = c
	}
	return l
}

// Record appends one record, stamping the schema. No-op on nil.
func (l *CostLog) Record(rec CostRecord) {
	if l == nil {
		return
	}
	rec.Schema = CostRecordSchema
	l.mu.Lock()
	_ = l.enc.Encode(&rec)
	l.mu.Unlock()
}

// Flush drains the buffer to the underlying writer. No-op on nil.
func (l *CostLog) Flush() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bw.Flush()
}

// Close flushes and closes the underlying writer when it is closable.
func (l *CostLog) Close() error {
	if l == nil {
		return nil
	}
	err := l.Flush()
	if l.c != nil {
		if cerr := l.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
