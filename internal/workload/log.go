package workload

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"paw/internal/binfmt"
	"paw/internal/geom"
)

// Log is an append-only query log — the production source of historical
// workloads. The master records every routed range query here; partition
// (re)construction later replays the log as QH, and the δ′ estimator
// (§IV-E) consumes its timestamp order. Safe for concurrent recording.
type Log struct {
	mu      sync.Mutex
	entries Workload
	nextSeq int64
}

// Record appends one query, stamping it with the next sequence number.
func (l *Log) Record(q geom.Box) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries = append(l.entries, Query{Box: q.Clone(), Seq: l.nextSeq})
	l.nextSeq++
}

// Len returns the number of recorded queries.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// Workload snapshots the full log as a workload.
func (l *Log) Workload() Workload {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.entries.Clone()
}

// Binary query-log format:
//
//	magic   uint32 'PAWQ'
//	version uint16 1
//	dims    uint16
//	count   uint64
//	per query: seq int64, dims lo float64, dims hi float64
const (
	logMagic   = 0x50415751 // "PAWQ"
	logVersion = 1
)

// Encode serialises the log.
func (l *Log) Encode(w io.Writer) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	dims := 0
	if len(l.entries) > 0 {
		dims = l.entries[0].Box.Dims()
	}
	buf := binfmt.AppendHeader(nil, logMagic, logVersion)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(dims))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(l.entries)))
	for _, q := range l.entries {
		if q.Box.Dims() != dims {
			return fmt.Errorf("workload: mixed dimensionality in log (%d vs %d)", q.Box.Dims(), dims)
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(q.Seq))
		buf = binfmt.AppendCorners(buf, q.Box)
	}
	_, err := w.Write(buf)
	return err
}

// DecodeLog reads a log serialised by Encode.
func DecodeLog(in io.Reader) (*Log, error) {
	data, err := binfmt.ReadAll(in)
	if err != nil {
		return nil, err
	}
	r := binfmt.NewReader("workload", data)
	r.Header(logMagic, logVersion)
	dims := int(r.U16())
	out := &Log{}
	for i := r.Count(r.U64(), 8+16*dims); i > 0; i-- {
		q := Query{Seq: r.I64(), Box: r.Corners(dims)}
		out.entries = append(out.entries, q)
		out.nextSeq = max(out.nextSeq, q.Seq+1)
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	return out, nil
}
