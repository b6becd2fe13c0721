package workload

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

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
	bw := bufio.NewWriter(w)
	le := binary.LittleEndian
	write := func(v any) error { return binary.Write(bw, le, v) }
	if err := write(uint32(logMagic)); err != nil {
		return err
	}
	if err := write(uint16(logVersion)); err != nil {
		return err
	}
	dims := 0
	if len(l.entries) > 0 {
		dims = l.entries[0].Box.Dims()
	}
	if err := write(uint16(dims)); err != nil {
		return err
	}
	if err := write(uint64(len(l.entries))); err != nil {
		return err
	}
	for _, q := range l.entries {
		if q.Box.Dims() != dims {
			return fmt.Errorf("workload: mixed dimensionality in log (%d vs %d)", q.Box.Dims(), dims)
		}
		if err := write(q.Seq); err != nil {
			return err
		}
		for _, v := range q.Box.Lo {
			if err := write(v); err != nil {
				return err
			}
		}
		for _, v := range q.Box.Hi {
			if err := write(v); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// DecodeLog reads a log serialised by Encode.
func DecodeLog(r io.Reader) (*Log, error) {
	br := bufio.NewReader(r)
	le := binary.LittleEndian
	var magic uint32
	if err := binary.Read(br, le, &magic); err != nil {
		return nil, fmt.Errorf("workload: reading log magic: %w", err)
	}
	if magic != logMagic {
		return nil, fmt.Errorf("workload: bad log magic %#x", magic)
	}
	var version, dims uint16
	if err := binary.Read(br, le, &version); err != nil {
		return nil, err
	}
	if version != logVersion {
		return nil, fmt.Errorf("workload: unsupported log version %d", version)
	}
	if err := binary.Read(br, le, &dims); err != nil {
		return nil, err
	}
	var count uint64
	if err := binary.Read(br, le, &count); err != nil {
		return nil, err
	}
	out := &Log{}
	for i := uint64(0); i < count; i++ {
		var seq int64
		if err := binary.Read(br, le, &seq); err != nil {
			return nil, fmt.Errorf("workload: log entry %d: %w", i, err)
		}
		lo := make(geom.Point, dims)
		hi := make(geom.Point, dims)
		for d := range lo {
			if err := binary.Read(br, le, &lo[d]); err != nil {
				return nil, err
			}
		}
		for d := range hi {
			if err := binary.Read(br, le, &hi[d]); err != nil {
				return nil, err
			}
		}
		out.entries = append(out.entries, Query{Box: geom.Box{Lo: lo, Hi: hi}, Seq: seq})
		if seq >= out.nextSeq {
			out.nextSeq = seq + 1
		}
	}
	return out, nil
}
