package trace

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
)

// CostRecordSchema versions the JSONL cost-record format. Bump on any
// field-semantics change; consumers (the future partition advisor's training
// pipeline) dispatch on it.
const CostRecordSchema = "paw/cost-record/v1"

// CostRecord is one measured query execution: the layout and query-shape
// features on the left-hand side of a cost model and the measured stage
// costs on the right. One record is emitted per sampled trace (the sampling
// rate is the volume knob), serialized as one JSON line.
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
	Workers           int `json:"workers"`

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
