package colstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"paw/internal/sma"
)

// Binary format (little-endian):
//
//	magic    uint32 'PAWC'
//	version  uint16 (3)
//	dims     uint16
//	groups   uint32
//	names    (uint16 len + bytes) per column
//	zones    uint32, always 0 (the query count of the zone maps v2 once carried)
//	per group:
//	  rows   uint32
//	  per column: kind uint8, then the encoded payload:
//	    raw:  least order key uint64, bits uint8 (0–57 or 64), ceil(rows·bits/8) bytes of packed key offsets
//	    dict: card uint32, card × float64, width uint8 (1|2), rows × width codes
//	    rle:  runs uint32, runs × float64 values, runs × uint32 lengths
//	    for:  base float64, bits uint8 (0–32), ceil(rows·bits/8) bytes of packed deltas
//	  SMA:   count int64, then per dim min/max/sum float64
//
// Packed values are little-endian bit fields: value i occupies bits
// [i·bits, (i+1)·bits) of the byte string, least significant bit first.
//
// A payload only ever crosses the wire between processes of one build, so
// nothing older is decodable: versions 1 (raw float64 columns) and 2 (raw
// float64 values, FOR in 64-bit words) and a non-zero zone count are errors.
const (
	colMagic   = 0x50415743 // "PAWC"
	colVersion = 3

	// maxDecodeRows bounds per-group row counts on decode so corrupt or
	// hostile headers cannot drive huge allocations.
	maxDecodeRows = 1 << 28
)

// leWriter batches little-endian writes through one reusable scratch
// buffer, so bulk slices go to the underlying writer in single Write calls
// instead of one binary.Write per element.
type leWriter struct {
	bw      *bufio.Writer
	scratch []byte
}

func (w *leWriter) grow(n int) []byte {
	if cap(w.scratch) < n {
		w.scratch = make([]byte, n)
	}
	w.scratch = w.scratch[:n]
	return w.scratch
}

func (w *leWriter) u8(v uint8) error { return w.bw.WriteByte(v) }
func (w *leWriter) u16(v uint16) error {
	b := w.grow(2)
	binary.LittleEndian.PutUint16(b, v)
	_, err := w.bw.Write(b)
	return err
}
func (w *leWriter) u32(v uint32) error {
	b := w.grow(4)
	binary.LittleEndian.PutUint32(b, v)
	_, err := w.bw.Write(b)
	return err
}
func (w *leWriter) u64(v uint64) error {
	b := w.grow(8)
	binary.LittleEndian.PutUint64(b, v)
	_, err := w.bw.Write(b)
	return err
}
func (w *leWriter) i64(v int64) error   { return w.u64(uint64(v)) }
func (w *leWriter) f64(v float64) error { return w.u64(math.Float64bits(v)) }

func (w *leWriter) f64s(vals []float64) error {
	b := w.grow(len(vals) * 8)
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(v))
	}
	_, err := w.bw.Write(b)
	return err
}

func (w *leWriter) u32s(vals []uint32) error {
	b := w.grow(len(vals) * 4)
	for i, v := range vals {
		binary.LittleEndian.PutUint32(b[i*4:], v)
	}
	_, err := w.bw.Write(b)
	return err
}

func (w *leWriter) u16s(vals []uint16) error {
	b := w.grow(len(vals) * 2)
	for i, v := range vals {
		binary.LittleEndian.PutUint16(b[i*2:], v)
	}
	_, err := w.bw.Write(b)
	return err
}

// leReader mirrors leWriter: bulk slices are read with a single io.ReadFull
// into the scratch buffer and converted in place.
type leReader struct {
	br      *bufio.Reader
	scratch []byte
}

// fill reads the next n bytes. The buffer grows with the bytes that arrive,
// not with the length a header claims: a hostile count costs an error, not an
// allocation.
func (r *leReader) fill(n int) ([]byte, error) {
	r.scratch = r.scratch[:0]
	for len(r.scratch) < n {
		end := min(n, max(2*len(r.scratch), cap(r.scratch), 4096))
		r.scratch = slices.Grow(r.scratch, end-len(r.scratch))
		if _, err := io.ReadFull(r.br, r.scratch[len(r.scratch):end]); err != nil {
			return nil, err
		}
		r.scratch = r.scratch[:end]
	}
	return r.scratch, nil
}

func (r *leReader) u8() (uint8, error) { return r.br.ReadByte() }
func (r *leReader) u16() (uint16, error) {
	b, err := r.fill(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
}
func (r *leReader) u32() (uint32, error) {
	b, err := r.fill(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}
func (r *leReader) u64() (uint64, error) {
	b, err := r.fill(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}
func (r *leReader) i64() (int64, error) {
	v, err := r.u64()
	return int64(v), err
}
func (r *leReader) f64() (float64, error) {
	v, err := r.u64()
	return math.Float64frombits(v), err
}

func (r *leReader) f64s(n int) ([]float64, error) {
	b, err := r.fill(n * 8)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out, nil
}

func (r *leReader) u32s(n int) ([]uint32, error) {
	b, err := r.fill(n * 4)
	if err != nil {
		return nil, err
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[i*4:])
	}
	return out, nil
}

func (r *leReader) u16s(n int) ([]uint16, error) {
	b, err := r.fill(n * 2)
	if err != nil {
		return nil, err
	}
	out := make([]uint16, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint16(b[i*2:])
	}
	return out, nil
}

// Encode writes the table in the PAWC v3 binary format.
func (t *Table) Encode(w io.Writer) error {
	lw := &leWriter{bw: bufio.NewWriter(w)}
	if err := lw.u32(colMagic); err != nil {
		return err
	}
	if err := lw.u16(colVersion); err != nil {
		return err
	}
	if err := lw.u16(uint16(t.Dims())); err != nil {
		return err
	}
	if err := lw.u32(uint32(len(t.groups))); err != nil {
		return err
	}
	for _, n := range t.names {
		if err := lw.u16(uint16(len(n))); err != nil {
			return err
		}
		if _, err := lw.bw.WriteString(n); err != nil {
			return err
		}
	}
	if err := lw.u32(0); err != nil { // the zone-count word
		return err
	}
	for gi := range t.groups {
		g := &t.groups[gi]
		if err := lw.u32(uint32(g.rows)); err != nil {
			return err
		}
		for d := range g.cols {
			if err := encodeColumnPayload(lw, &g.cols[d]); err != nil {
				return err
			}
		}
		if err := lw.i64(g.stats.Count); err != nil {
			return err
		}
		for d := 0; d < t.Dims(); d++ {
			if err := lw.f64(g.stats.Min[d]); err != nil {
				return err
			}
			if err := lw.f64(g.stats.Max[d]); err != nil {
				return err
			}
			if err := lw.f64(g.stats.Sum[d]); err != nil {
				return err
			}
		}
	}
	return lw.bw.Flush()
}

func encodeColumnPayload(lw *leWriter, c *column) error {
	if err := lw.u8(uint8(c.kind)); err != nil {
		return err
	}
	switch c.kind {
	case colDict:
		if err := lw.u32(uint32(len(c.dict))); err != nil {
			return err
		}
		if err := lw.f64s(c.dict); err != nil {
			return err
		}
		if c.codes8 != nil {
			if err := lw.u8(1); err != nil {
				return err
			}
			_, err := lw.bw.Write(c.codes8)
			return err
		}
		if err := lw.u8(2); err != nil {
			return err
		}
		return lw.u16s(c.codes16)
	case colRLE:
		if err := lw.u32(uint32(len(c.runVals))); err != nil {
			return err
		}
		if err := lw.f64s(c.runVals); err != nil {
			return err
		}
		return lw.u32s(c.runLens)
	default:
		head := c.minKey
		if c.kind == colFOR {
			head = math.Float64bits(c.base)
		}
		if err := lw.u64(head); err != nil {
			return err
		}
		if err := lw.u8(c.width); err != nil {
			return err
		}
		_, err := lw.bw.Write(c.packed[:packedPayload(c.n, c.width)-9])
		return err
	}
}

func decodeColumnPayload(lr *leReader, rows int) (column, error) {
	kind, err := lr.u8()
	if err != nil {
		return column{}, err
	}
	c := column{kind: colKind(kind), n: rows}
	switch c.kind {
	case colDict:
		card, err := lr.u32()
		if err != nil {
			return c, err
		}
		if card == 0 || int(card) > dictMaxCard || int(card) > rows {
			return c, fmt.Errorf("colstore: dictionary cardinality %d out of range for %d rows", card, rows)
		}
		if c.dict, err = lr.f64s(int(card)); err != nil {
			return c, err
		}
		width, err := lr.u8()
		if err != nil {
			return c, err
		}
		switch width {
		case 1:
			if card > 256 {
				return c, fmt.Errorf("colstore: 1-byte codes for cardinality %d", card)
			}
			b, err := lr.fill(rows)
			if err != nil {
				return c, err
			}
			c.codes8 = append([]uint8(nil), b...)
			for _, code := range c.codes8 {
				if int(code) >= int(card) {
					return c, fmt.Errorf("colstore: dictionary code %d out of range", code)
				}
			}
		case 2:
			if c.codes16, err = lr.u16s(rows); err != nil {
				return c, err
			}
			for _, code := range c.codes16 {
				if int(code) >= int(card) {
					return c, fmt.Errorf("colstore: dictionary code %d out of range", code)
				}
			}
		default:
			return c, fmt.Errorf("colstore: unsupported dictionary code width %d", width)
		}
	case colRLE:
		runs, err := lr.u32()
		if err != nil {
			return c, err
		}
		if runs == 0 || int(runs) > rows {
			return c, fmt.Errorf("colstore: %d runs for %d rows", runs, rows)
		}
		if c.runVals, err = lr.f64s(int(runs)); err != nil {
			return c, err
		}
		if c.runLens, err = lr.u32s(int(runs)); err != nil {
			return c, err
		}
		var total int64
		for _, l := range c.runLens {
			total += int64(l)
		}
		if total != int64(rows) {
			return c, fmt.Errorf("colstore: run lengths sum to %d, want %d rows", total, rows)
		}
	case colRaw, colFOR:
		head, err := lr.u64()
		if err != nil {
			return c, err
		}
		if c.width, err = lr.u8(); err != nil {
			return c, err
		}
		if c.kind == colFOR && c.width > 32 || c.width > 57 && c.width != 64 {
			return c, fmt.Errorf("colstore: %v bit width %d out of range", c.kind, c.width)
		}
		b, err := lr.fill(int(packedPayload(rows, c.width) - 9))
		if err != nil {
			return c, err
		}
		c.packed = make([]byte, len(b)+8) // unpack's padding
		copy(c.packed, b)
		if c.kind == colFOR {
			c.base = math.Float64frombits(head)
		} else {
			c.minKey = head
			c.pieces = c.ascendingPieces()
		}
	default:
		return c, fmt.Errorf("colstore: unknown column encoding %d", kind)
	}
	return c, nil
}

// Decode reads a table in the PAWC v3 binary format.
func Decode(r io.Reader) (*Table, error) {
	lr := &leReader{br: bufio.NewReader(r)}
	magic, err := lr.u32()
	if err != nil {
		return nil, fmt.Errorf("colstore: reading magic: %w", err)
	}
	if magic != colMagic {
		return nil, fmt.Errorf("colstore: bad magic %#x", magic)
	}
	version, err := lr.u16()
	if err != nil {
		return nil, err
	}
	if version != colVersion {
		return nil, fmt.Errorf("colstore: unsupported version %d", version)
	}
	dims, err := lr.u16()
	if err != nil {
		return nil, err
	}
	if dims == 0 {
		return nil, fmt.Errorf("colstore: zero columns")
	}
	groups, err := lr.u32()
	if err != nil {
		return nil, err
	}
	t := &Table{names: make([]string, dims)}
	for i := range t.names {
		n, err := lr.u16()
		if err != nil {
			return nil, err
		}
		b, err := lr.fill(int(n))
		if err != nil {
			return nil, err
		}
		t.names[i] = string(b)
	}
	nq, err := lr.u32()
	if err != nil {
		return nil, err
	}
	if nq != 0 {
		return nil, fmt.Errorf("colstore: %d zone queries: zone maps are not supported", nq)
	}
	for gi := uint32(0); gi < groups; gi++ {
		rows, err := lr.u32()
		if err != nil {
			return nil, err
		}
		if rows == 0 || rows > maxDecodeRows {
			return nil, fmt.Errorf("colstore: group %d row count %d out of range", gi, rows)
		}
		cols := make([]column, dims)
		for d := range cols {
			if cols[d], err = decodeColumnPayload(lr, int(rows)); err != nil {
				return nil, fmt.Errorf("colstore: group %d col %d: %w", gi, d, err)
			}
		}
		stats, err := decodeStats(lr, int(dims))
		if err != nil {
			return nil, err
		}
		t.rows += int(rows)
		t.groups = append(t.groups, newRowGroup(cols, int(rows), stats))
	}
	return t, nil
}

func decodeStats(lr *leReader, dims int) (sma.Aggregates, error) {
	st := sma.Aggregates{
		Min: make([]float64, dims),
		Max: make([]float64, dims),
		Sum: make([]float64, dims),
	}
	var err error
	if st.Count, err = lr.i64(); err != nil {
		return st, err
	}
	for d := 0; d < dims; d++ {
		if st.Min[d], err = lr.f64(); err != nil {
			return st, err
		}
		if st.Max[d], err = lr.f64(); err != nil {
			return st, err
		}
		if st.Sum[d], err = lr.f64(); err != nil {
			return st, err
		}
	}
	return st, nil
}
