// Package colstore is the repository's Parquet stand-in: a columnar table
// format with fixed-size row groups, per-group min/max statistics (SMAs),
// per-column lightweight compression and a binary encoding. Scans prune
// whole row groups whose statistics miss the query — the "row group based
// pruning" the paper credits for the sub-linear end-to-end times of
// Fig. 15b — and evaluate the surviving groups with vectorized kernels:
// predicates run directly on the encoded columns (dictionary codes, RLE
// runs, bit-packed deltas and order-key offsets), a reusable selection
// vector carries survivors between columns, and only the rows that pass every
// predicate are decoded (late materialization). See DESIGN.md §11.
package colstore

import (
	"math"
	"slices"

	"paw/internal/dataset"
	"paw/internal/geom"
	"paw/internal/sma"
)

// DefaultGroupRows is the default row-group size. Parquet's default row
// group is large (tens of MB); scaled to this repository's 1/1000 world a
// few thousand rows per group gives comparable pruning granularity.
const DefaultGroupRows = 4096

// Table is an immutable columnar table split into row groups. Every column
// chunk is stored under the cheapest exact encoding for its values
// (dictionary, run-length, frame-of-reference bit-packing, or raw), chosen
// independently per row group at build time.
type Table struct {
	names  []string
	groups []rowGroup
	rows   int
}

type rowGroup struct {
	cols  []column
	rows  int
	stats sma.Aggregates
	// encoded is the group's physical payload size under its encodings. A
	// scan asks for it once per group, so it is summed once, by newRowGroup.
	encoded int64
}

// newRowGroup assembles a row group from its encoded columns.
func newRowGroup(cols []column, rows int, stats sma.Aggregates) rowGroup {
	g := rowGroup{cols: cols, rows: rows, stats: stats}
	for i := range cols {
		g.encoded += cols[i].payloadBytes()
	}
	return g
}

// encodedBytes is the group's physical payload size under its encodings.
func (g *rowGroup) encodedBytes() int64 { return g.encoded }

// FromDataset materialises the given rows of data (all rows when rows is
// nil), in the order given, into a columnar table with groupRows rows per row
// group, choosing the cheapest exact encoding per column chunk. It is the
// order-preserving primitive; partition tables are built by a Builder, which
// chooses the order.
func FromDataset(data *dataset.Dataset, rows []int, groupRows int) *Table {
	if groupRows < 1 {
		groupRows = DefaultGroupRows
	}
	if rows == nil {
		rows = make([]int, data.NumRows())
		for i := range rows {
			rows[i] = i
		}
	}
	t := &Table{names: append([]string(nil), data.Names()...), rows: len(rows)}
	var enc groupEncoder
	for s := 0; s < len(rows); s += groupRows {
		chunk := rows[s:min(s+groupRows, len(rows))]
		t.groups = append(t.groups, enc.encode(data.Dims(), len(chunk), func(d int, dst []float64) {
			col := data.Column(d)
			for i, r := range chunk {
				dst[i] = col[r]
			}
		}))
	}
	return t
}

// groupEncoder encodes row groups, reusing its staging buffers across groups.
type groupEncoder struct {
	vals    []float64
	scratch encodeScratch
}

// encode builds one row group of n rows: fill(d, dst) writes column d's
// values, in row order, into dst[:n]. The group's SMAs are accumulated from
// the same values in the same order.
func (e *groupEncoder) encode(dims, n int, fill func(d int, dst []float64)) rowGroup {
	cols := make([]column, dims)
	stats := sma.Aggregates{
		Count: int64(n),
		Min:   make([]float64, dims),
		Max:   make([]float64, dims),
		Sum:   make([]float64, dims),
	}
	e.vals = slices.Grow(e.vals[:0], n)[:n]
	for d := 0; d < dims; d++ {
		fill(d, e.vals)
		cols[d] = encodeColumn(e.vals, &e.scratch)
		mn, mx, sum := math.Inf(1), math.Inf(-1), 0.0
		for _, v := range e.vals {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
			sum += v
		}
		stats.Min[d], stats.Max[d], stats.Sum[d] = mn, mx, sum
	}
	return newRowGroup(cols, n, stats)
}

// NumRows returns the total row count.
func (t *Table) NumRows() int { return t.rows }

// NumGroups returns the row-group count.
func (t *Table) NumGroups() int { return len(t.groups) }

// Dims returns the column count.
func (t *Table) Dims() int { return len(t.names) }

// Names returns the column names.
func (t *Table) Names() []string { return t.names }

// Bytes returns the simulated physical size of the table (the layout cost
// model's 16 bytes/attribute; see dataset.BytesPerAttribute). Compression
// is accounted separately via EncodedBytes.
func (t *Table) Bytes() int64 {
	return int64(t.rows) * int64(t.Dims()) * dataset.BytesPerAttribute
}

// EncodedBytes returns the physical payload size of the table under its
// chosen per-column encodings — the denominator of the scan kernels' byte
// accounting (ScanStats.BytesRead + ScanStats.BytesSkipped sums to this for
// a full-table scan).
func (t *Table) EncodedBytes() int64 {
	var b int64
	for i := range t.groups {
		b += t.groups[i].encodedBytes()
	}
	return b
}

// EncodingCounts tallies the physical encodings chosen across all row
// groups and columns, keyed by encoding name ("raw", "dict", "rle", "for").
func (t *Table) EncodingCounts() map[string]int {
	out := make(map[string]int)
	for gi := range t.groups {
		for d := range t.groups[gi].cols {
			out[t.groups[gi].cols[d].kind.String()]++
		}
	}
	return out
}

// EncodedBytesByEncoding is EncodedBytes split by physical encoding, under the
// keys of EncodingCounts: where the stored bytes — and a scan's reads — are.
func (t *Table) EncodedBytesByEncoding() map[string]int64 {
	out := make(map[string]int64)
	for gi := range t.groups {
		for d := range t.groups[gi].cols {
			c := &t.groups[gi].cols[d]
			out[c.kind.String()] += c.payloadBytes()
		}
	}
	return out
}

// SearchCensus counts the table's raw chunks, with the bits their values are
// packed at summed over them, and of them the searchable ones — those in
// ascending pieces, which a scan narrows by binary search where it sweeps the
// rest — with their pieces and rows, and adds each searchable chunk to
// byColumn (if not nil) under its column's name: in a builder's table, the
// tail columns.
func (t *Table) SearchCensus(byColumn map[string]int) (raw, rawBits, searchable, pieces, rows int) {
	for gi := range t.groups {
		for d := range t.groups[gi].cols {
			c := &t.groups[gi].cols[d]
			if c.kind != colRaw {
				continue
			}
			raw++
			rawBits += int(c.width)
			if c.pieces != nil {
				searchable++
				pieces += len(c.pieces)
				rows += c.n
				if byColumn != nil {
					byColumn[t.names[d]]++
				}
			}
		}
	}
	return raw, rawBits, searchable, pieces, rows
}

// ScanStats reports what a scan did. Byte accounting follows the encoded
// representation and late materialization: BytesRead counts only the
// encoded payload actually decoded (predicate columns touched plus
// materialized survivor values), never whole-group sizes; BytesSkipped is
// the encoded payload a naive decode-everything scan would have read but
// this scan proved it could skip. For any scan, BytesRead + BytesSkipped
// equals the table's EncodedBytes.
type ScanStats struct {
	// Matched is the number of rows satisfying the query.
	Matched int
	// BytesRead is the encoded payload actually decoded.
	BytesRead int64
	// BytesSkipped is the encoded payload proven skippable (pruned groups,
	// covered columns, rows rejected before materialization).
	BytesSkipped int64
	// RowsDecoded is the number of rows materialized (0 for Count scans).
	RowsDecoded int64
	// GroupsRead / GroupsSkipped count row groups evaluated vs pruned.
	GroupsRead    int
	GroupsSkipped int
	// GroupsZoneSkipped is never incremented: the zone maps it counted are
	// gone, and the field stays only because benchmark/ — which a PR may not
	// edit — reads it (see dist/metrics.go; ROADMAP.md item 1a removes it).
	GroupsZoneSkipped int
	// ColsRaw..ColsFOR count the column chunks actually decoded, by
	// physical encoding — the encoding mix of the scan's real work
	// (predicate columns touched plus covered columns materialized). The
	// naive oracle decodes every column of every surviving group, so its
	// mix is the table's encoding census, not the kernel's.
	ColsRaw  int
	ColsDict int
	ColsRLE  int
	ColsFOR  int
}

// Add accumulates other into st (used when merging per-partition or
// per-chunk statistics).
func (st *ScanStats) Add(other ScanStats) {
	st.Matched += other.Matched
	st.BytesRead += other.BytesRead
	st.BytesSkipped += other.BytesSkipped
	st.RowsDecoded += other.RowsDecoded
	st.GroupsRead += other.GroupsRead
	st.GroupsSkipped += other.GroupsSkipped
	st.ColsRaw += other.ColsRaw
	st.ColsDict += other.ColsDict
	st.ColsRLE += other.ColsRLE
	st.ColsFOR += other.ColsFOR
}

// Scan evaluates the range query q with the vectorized kernels and returns
// the matched row values materialised as points (all sharing one flat
// backing array) plus scan statistics. Callers on a hot path should hold a
// Scanner and use Scanner.Scan, which reuses its buffers across calls.
func (t *Table) Scan(q geom.Box) ([]geom.Point, ScanStats) {
	s := defaultScanners.Get()
	defer defaultScanners.Put(s)
	flat, st := s.Scan(t, q)
	if len(flat) == 0 {
		return nil, st
	}
	dims := t.Dims()
	backing := append([]float64(nil), flat...)
	out := make([]geom.Point, st.Matched)
	for r := range out {
		out[r] = backing[r*dims : (r+1)*dims : (r+1)*dims]
	}
	return out, st
}

// Count is Scan without materialising rows: the selection vector is
// evaluated but no values are decoded.
func (t *Table) Count(q geom.Box) ScanStats {
	s := defaultScanners.Get()
	defer defaultScanners.Put(s)
	return s.Count(t, q)
}

// groupStats returns the SMA aggregates of row group i.
func (t *Table) groupStats(i int) sma.Aggregates { return t.groups[i].stats }

// Envelope returns the table's data envelope: the union of its row groups'
// min/max statistics, folded from the SMAs without reading a value; false for
// a table with no rows. A query that misses the envelope misses every group's
// statistics on the same dimension, so CanPrune holds for each group: skipping
// the whole table then changes neither the rows a scan returns nor the bytes
// it reads.
func (t *Table) Envelope() (geom.Box, bool) {
	if len(t.groups) == 0 {
		return geom.Box{}, false
	}
	env := geom.NewBox(t.groups[0].stats.Min, t.groups[0].stats.Max)
	for i := range t.groups[1:] {
		st := &t.groups[i+1].stats
		for d := range env.Lo {
			env.Lo[d] = math.Min(env.Lo[d], st.Min[d])
			env.Hi[d] = math.Max(env.Hi[d], st.Max[d])
		}
	}
	return env, true
}

// GroupRows returns the row count of row group i.
func (t *Table) GroupRows(i int) int { return t.groups[i].rows }

// groupPoints materialises row group i as points (reading the whole group,
// as a scan would). All returned points share one flat backing array — the
// call allocates twice regardless of the row count.
func (t *Table) groupPoints(i int) []geom.Point {
	g := &t.groups[i]
	n := g.rows
	dims := t.Dims()
	backing := make([]float64, n*dims)
	col := make([]float64, n)
	for d := 0; d < dims; d++ {
		g.cols[d].decodeInto(col)
		for r := 0; r < n; r++ {
			backing[r*dims+d] = col[r]
		}
	}
	out := make([]geom.Point, n)
	for r := range out {
		out[r] = backing[r*dims : (r+1)*dims : (r+1)*dims]
	}
	return out
}
