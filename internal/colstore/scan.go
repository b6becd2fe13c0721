package colstore

import (
	"paw/internal/geom"
)

// Scanner holds the reusable scratch of the vectorized scan kernels: the
// selection (spans, double-buffered, and a position vector), the flat
// materialization buffer and the dimension ordering. It amortizes to zero
// allocations per row group once its buffers have grown to the table's group
// size. Scanners are not safe for concurrent use; use a ScannerPool.
type Scanner struct {
	sel      []int32
	spans    []span
	narrowed []span
	flat     []float64
	order    []int
	rank     []float64
	touched  []bool
	chunks   []ScanStats
}

// NewScanner returns an empty scanner; buffers grow on first use.
func NewScanner() *Scanner { return &Scanner{} }

// Count evaluates q over the whole table without materialising rows.
func (s *Scanner) Count(t *Table, q geom.Box) ScanStats {
	var st ScanStats
	s.scanGroups(t, q, 0, len(t.groups), false, &st)
	return st
}

// Scan evaluates q and materialises the surviving rows, row-major, into the
// scanner's flat buffer: row r occupies flat[r*dims : (r+1)*dims]. The
// returned slice is owned by the scanner and valid until its next call —
// the caller-reusable buffer of the late-materialization contract.
func (s *Scanner) Scan(t *Table, q geom.Box) ([]float64, ScanStats) {
	var st ScanStats
	s.flat = s.flat[:0]
	s.scanGroups(t, q, 0, len(t.groups), true, &st)
	return s.flat, st
}

// scanGroups runs the kernel over row groups [lo, hi), accumulating into st.
func (s *Scanner) scanGroups(t *Table, q geom.Box, lo, hi int, materialize bool, st *ScanStats) {
	for gi := lo; gi < hi; gi++ {
		g := &t.groups[gi]
		if g.stats.CanPrune(q) {
			st.GroupsSkipped++
			st.BytesSkipped += g.encodedBytes()
			continue
		}
		st.GroupsRead++
		enc := g.encodedBytes()
		read := s.scanGroup(g, q, materialize, st)
		if read > enc {
			read = enc // refinement estimates never exceed, but stay safe
		}
		st.BytesRead += read
		st.BytesSkipped += enc - read
	}
}

// scanGroup evaluates one row group column-at-a-time and returns the
// encoded bytes it decoded.
//
// The kernel shape: dimensions whose SMA envelope lies entirely inside the
// query are covered — every row passes, so their predicate is skipped and
// no bytes are decoded for them until materialization. The remaining
// (active) dimensions are evaluated run chunks first, then cheapest per
// rejected row first, estimated from the chunk's size and the envelope
// overlap; the selection they pass along is spans — while run chunks and raw
// chunks in ascending pieces narrow it — then positions (encoding.go).
// Materialization then decodes only surviving rows.
func (s *Scanner) scanGroup(g *rowGroup, q geom.Box, materialize bool, st *ScanStats) int64 {
	dims := len(g.cols)
	if cap(s.touched) < dims {
		s.touched = make([]bool, dims)
		s.rank = make([]float64, dims)
	}
	s.touched = s.touched[:dims]
	s.order = s.order[:0]
	for d := 0; d < dims; d++ {
		s.touched[d] = false
		if g.stats.DimCovered(d, q) {
			continue // covered: every row in the group passes on d
		}
		// Estimated fraction of the envelope the query overlaps on d; a point
		// envelope or a NaN bound estimates 1, so est is always in [0, 1].
		est := 1.0
		if lo, hi := g.stats.Min[d], g.stats.Max[d]; hi > lo {
			if e := (min(q.Hi[d], hi) - max(q.Lo[d], lo)) / (hi - lo); e >= 0 {
				est = e
			}
		}
		// Insertion sort on the bytes a chunk costs per row it should reject,
		// payload/(1-est) — for a raw chunk in ascending pieces, what a search
		// of them reads — the textbook predicate order; run chunks ahead of
		// the rest, in that same order (-1/x is below zero and keeps it): they
		// narrow spans, and the chooser picks RLE only where it is smallest,
		// so a run chunk is never dearer per row than what follows it.
		s.order = append(s.order, d)
		c := &g.cols[d]
		cost := c.payloadBytes()
		if c.pieces != nil {
			cost = c.searchBytes() // searched, not swept
		}
		s.rank[d] = float64(cost) / (1 - est)
		if c.kind == colRLE {
			s.rank[d] = -1 / s.rank[d]
		}
		for i := len(s.order) - 1; i > 0 && s.rank[s.order[i]] < s.rank[s.order[i-1]]; i-- {
			s.order[i], s.order[i-1] = s.order[i-1], s.order[i]
		}
	}

	// The kernels write a position before they know whether it survives, so
	// the selection vector holds the whole group up front.
	if cap(s.sel) < g.rows {
		s.sel = make([]int32, g.rows)
	}
	var read int64
	var sel []int32 // nil while the selection is still spans
	spans := append(s.spans[:0], span{0, int32(g.rows)})
	matched := g.rows
	for oi, d := range s.order {
		c := &g.cols[d]
		var b int64
		switch {
		case c.kind == colRLE || sel == nil && c.pieces != nil:
			s.narrowed, b = c.narrow(q.Lo[d], q.Hi[d], spans, s.narrowed[:0])
			spans, s.narrowed = s.narrowed, spans // the input is the next output buffer
			matched = spanRows(spans)
		case sel != nil:
			sel, b = c.refine(q.Lo[d], q.Hi[d], sel)
			matched = len(sel)
		case !materialize && oi == len(s.order)-1:
			matched, b = c.countSpans(q.Lo[d], q.Hi[d], spans)
		default:
			sel, b = c.selectSpans(q.Lo[d], q.Hi[d], spans, s.sel[:g.rows])
			matched = len(sel)
		}
		s.touched[d] = true
		read += b
		st.tallyEncoding(c.kind)
		if matched == 0 {
			break
		}
	}
	s.spans = spans
	st.Matched += matched
	if materialize && matched > 0 {
		if sel == nil {
			sel = expand(spans, s.sel[:g.rows])
		}
		base := len(s.flat)
		need := base + len(sel)*dims
		if cap(s.flat) < need {
			grown := make([]float64, need, need+need/2)
			copy(grown, s.flat)
			s.flat = grown
		} else {
			s.flat = s.flat[:need]
		}
		for d := 0; d < dims; d++ {
			c := &g.cols[d]
			c.gather(sel, s.flat[base:], dims, d)
			if !s.touched[d] {
				// Covered columns are decoded here for the first time;
				// predicate columns were already accounted above.
				read += c.valueBytes(len(sel))
				st.tallyEncoding(c.kind)
			}
		}
		st.RowsDecoded += int64(len(sel))
	}
	return read
}

// tallyEncoding counts one decoded column chunk under its physical encoding.
func (st *ScanStats) tallyEncoding(k colKind) {
	switch k {
	case colDict:
		st.ColsDict++
	case colRLE:
		st.ColsRLE++
	case colFOR:
		st.ColsFOR++
	default:
		st.ColsRaw++
	}
}

// scanNaive is the retained reference scan: it decodes every non-pruned row
// group in full and evaluates the predicate row-at-a-time, exactly as the
// pre-vectorization store did. It exists as the differential-testing oracle
// (CountNaive is also the scan benchmark's baseline); BytesRead accounts
// whole-group encoded bytes because that is what it decodes.
func (t *Table) scanNaive(q geom.Box) ([]geom.Point, ScanStats) {
	var out []geom.Point
	st := t.naiveScan(q, func(cols [][]float64, i, dims int) {
		p := make(geom.Point, dims)
		for d := 0; d < dims; d++ {
			p[d] = cols[d][i]
		}
		out = append(out, p)
	})
	return out, st
}

// CountNaive is scanNaive without materialization.
func (t *Table) CountNaive(q geom.Box) ScanStats {
	return t.naiveScan(q, nil)
}

func (t *Table) naiveScan(q geom.Box, emit func(cols [][]float64, i, dims int)) ScanStats {
	var st ScanStats
	dims := t.Dims()
	cols := make([][]float64, dims)
	for gi := range t.groups {
		g := &t.groups[gi]
		if g.stats.CanPrune(q) {
			st.GroupsSkipped++
			st.BytesSkipped += g.encodedBytes()
			continue
		}
		st.GroupsRead++
		st.BytesRead += g.encodedBytes()
		for d := 0; d < dims; d++ {
			if cap(cols[d]) < g.rows {
				cols[d] = make([]float64, g.rows)
			}
			cols[d] = cols[d][:g.rows]
			g.cols[d].decodeInto(cols[d])
			st.tallyEncoding(g.cols[d].kind)
		}
	rowLoop:
		for i := 0; i < g.rows; i++ {
			for d := 0; d < dims; d++ {
				v := cols[d][i]
				if v < q.Lo[d] || v > q.Hi[d] {
					continue rowLoop
				}
			}
			if emit != nil {
				emit(cols, i, dims)
				st.RowsDecoded++
			}
			st.Matched++
		}
	}
	return st
}
