// Package dist implements the query framework of Fig. 4 as a real networked
// system: a master node that owns the partition-layout metadata and rewrites
// SQL into partition-ID lists, worker nodes that host materialised
// partitions and execute scans, and a client speaking SQL to the master.
// Every hop speaks one wire protocol: the positional binary codecs of
// binproto.go inside the multiplexed, CRC-checked frames of internal/serve.
//
// It stands in for the paper's Spark deployment, beside its cost model
// (Eq. 1–2): Table IV and Fig. 15b time each layout's answers through it
// (internal/bench), with the workers in process on loopback.
//
// The path is failure-hardened end to end (DESIGN.md §10): every call
// carries a deadline over the wire, the master retries with seeded
// exponential backoff under a per-query budget, per-worker breakers
// short-circuit dials to unhealthy workers, scans fail over to partition
// replicas, and clients may opt into partial results when no replica of a
// partition survives.
package dist

import (
	"paw/internal/geom"
	"paw/internal/layout"
	"paw/internal/trace"
)

// ScanRequest asks a worker to scan a set of its partitions with one range
// query.
type ScanRequest struct {
	Query geom.Box
	IDs   []layout.ID
	// Seq is the master-assigned request ID, echoed in logs/errors so a
	// retried call is attributable across hosts.
	Seq uint64
	// Deadline is the absolute call deadline in Unix nanoseconds (0: none).
	// A worker drops partitions it cannot start before the deadline instead
	// of doing work the master has already given up on.
	Deadline int64
	// Epoch selects the layout version the IDs are meant under (DESIGN.md
	// §13). 0 is the initial epoch (the tables the worker started with), so
	// pre-epoch masters stay wire-compatible; during a migration the master
	// double-routes and a late scan under the previous epoch still resolves
	// against the old partition set.
	Epoch uint64
	// TraceID, when non-zero, asks the worker to record per-partition scan
	// spans and return them in ScanResponse.Spans (DESIGN.md §14). Zero —
	// the untraced common case — keeps the worker's span path entirely off.
	TraceID uint64
}

// Admin operations carried by AdminRequest.
const (
	// AdminInstall publishes one partition into a layout epoch on the
	// worker, either by aliasing a partition it already holds (ReuseID >= 0)
	// or from an encoded column-store payload.
	AdminInstall = 1
	// AdminRetire drops a whole layout epoch and the partitions only it
	// references.
	AdminRetire = 2
	// AdminFetch asks the worker to encode and return one partition it hosts
	// — the rebalancer's data source: a joining worker receives payloads
	// fetched from the current holders, so the master never needs the raw
	// dataset to move partitions (DESIGN.md §15).
	AdminFetch = 3
)

// AdminRequest is the master-to-worker migration control message: install a
// partition into a layout epoch, fetch one, or retire an epoch.
type AdminRequest struct {
	Op    int
	Epoch uint64
	// ID is the partition being installed (AdminInstall only).
	ID layout.ID
	// ReuseEpoch/ReuseID alias an already-installed partition: the new
	// (Epoch, ID) serves the same physical table as (ReuseEpoch, ReuseID).
	// ReuseID < 0 means Payload carries the data instead.
	ReuseEpoch uint64
	ReuseID    layout.ID
	// Payload is the colstore-encoded table for a new partition.
	Payload []byte
	// Rows is the expected row count, cross-checked after decode.
	Rows int64
	// Seq is the master-assigned request ID, echoed in logs/errors.
	Seq uint64
}

// AdminResponse reports the admin outcome ("" = success). For AdminFetch,
// Payload carries the colstore-encoded partition and Rows its row count.
type AdminResponse struct {
	Err     string
	Payload []byte
	Rows    int64
}

// ScanResponse reports the scan outcome. On a per-partition failure the
// telemetry fields keep the totals accumulated before the failing partition
// (they are informational; the master never aggregates a failed response).
type ScanResponse struct {
	Rows          int
	BytesRead     int64
	BytesSkipped  int64
	GroupsRead    int
	GroupsSkipped int
	Err           string
	// FailedPartition is the partition that produced Err, or -1 when the
	// response is clean (or the failure was not partition-specific).
	FailedPartition int64
	// Spans carries the worker's trace fragment when the request was traced
	// (ScanRequest.TraceID != 0): span IDs are worker-local starting at 1,
	// Parent 0 meaning "attach to the master's requesting span" — the master
	// remaps them into the query trace (trace.T.Attach).
	Spans []trace.Span
}

// QueryRequest is the client-to-master message: one SQL statement plus the
// client's failure-handling preferences.
type QueryRequest struct {
	SQL string
	// TimeoutMillis bounds the whole query on the master (0: master default).
	TimeoutMillis int64
	// AllowPartial opts into partial results: when every replica of a
	// partition is down the master answers from the surviving partitions and
	// reports the failed ones instead of failing the query.
	AllowPartial bool
	// Trace forces a full trace of this query (EXPLAIN ANALYZE): the master
	// samples it regardless of the tracing configuration and returns the
	// assembled span tree in QueryResponse.Spans.
	Trace bool
}

// QueryResponse is the master's reply after scattering the scan work.
type QueryResponse struct {
	Rows              int
	BytesScanned      int64
	BytesSkipped      int64
	PartitionsScanned int
	SubQueries        int
	Err               string
	// ErrCode is the typed code for Err (ErrCodeNone for generic failures;
	// ErrCodeOverloaded when admission control shed the query).
	ErrCode int
	// Partial reports that some partitions were unreachable and the result
	// covers only the rest (only when the request allowed partial results).
	Partial bool
	// FailedPartitions lists the partitions no replica could serve.
	FailedPartitions []layout.ID
	// TraceID/Spans carry the assembled query trace, set only when the
	// request forced one (QueryRequest.Trace); untraced responses stay
	// byte-identical whether master-side tracing is on or off.
	TraceID uint64
	Spans   []trace.Span
}
