package colstore

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"paw/internal/binfmt"
	"paw/internal/sma"
)

// Binary format (little-endian):
//
//	magic    uint32 'PAWC'
//	version  uint16 (5)
//	dims     uint16
//	groups   uint32
//	names    (uint16 len + bytes) per column
//	per group:
//	  rows   uint32
//	  per column: kind uint8, then the encoded payload:
//	    raw:  least order key uint64, bits uint8 (0–57 or 64), ceil(rows·bits/8) bytes of packed key offsets
//	    dict: card uint32, card × float64 ascending, bits uint8 (the bits card-1 needs), ceil(rows·bits/8) bytes of packed ranks
//	    rle:  runs uint32, runs × float64 values, runs × uint32 lengths
//	    for:  base float64, bits uint8 (0–32), ceil(rows·bits/8) bytes of packed deltas
//	  SMA:   per dim min/max float64 (its count is the group's rows)
//
// Packed values are little-endian bit fields: value i occupies bits
// [i·bits, (i+1)·bits) of the byte string, least significant bit first.
//
// A payload is an install on the wire or a partition file of a store
// (`pawcli build -store` writes them, `pawworker -store` serves them).
// Nothing older is decodable: versions 1 (raw float64 columns), 2 (raw
// float64 values, FOR in 64-bit words), 3 (v4 plus an always-zero zone
// count, and an SMA count and sum per group that no scan read) and 4
// (dictionary codes of one or two bytes each) are errors that name the
// remedy, rebuilding the store.
const (
	colMagic   = 0x50415743 // "PAWC"
	colVersion = 5

	// maxDecodeRows bounds per-group row counts on decode so corrupt or
	// hostile headers cannot drive huge allocations.
	maxDecodeRows = 1 << 28
)

// Encode writes the table in the PAWC v5 binary format.
func (t *Table) Encode(w io.Writer) error {
	// Room for the column chunks, each group's row count, kind tags and SMA,
	// and 1 KiB of header and names.
	size := 1024 + t.EncodedBytes() + int64(len(t.groups)*(4+17*t.Dims()))
	buf := binfmt.AppendHeader(make([]byte, 0, size), colMagic, colVersion)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(t.Dims()))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(t.groups)))
	for _, n := range t.names {
		buf = binfmt.AppendString16(buf, n)
	}
	for gi := range t.groups {
		g := &t.groups[gi]
		buf = binary.LittleEndian.AppendUint32(buf, uint32(g.rows))
		for d := range g.cols {
			buf = appendColumn(buf, &g.cols[d])
		}
		for d := 0; d < t.Dims(); d++ {
			buf = appendF64(buf, g.stats.Min[d])
			buf = appendF64(buf, g.stats.Max[d])
		}
	}
	_, err := w.Write(buf)
	return err
}

func appendF64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

func appendColumn(buf []byte, c *column) []byte {
	buf = append(buf, uint8(c.kind))
	switch c.kind {
	case colRLE:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.runVals)))
		for _, v := range c.runVals {
			buf = appendF64(buf, v)
		}
		for _, l := range c.runLens {
			buf = binary.LittleEndian.AppendUint32(buf, l)
		}
		return buf
	case colDict:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.dict)))
		for _, v := range c.dict {
			buf = appendF64(buf, v)
		}
	case colFOR:
		buf = appendF64(buf, c.base)
	default:
		buf = binary.LittleEndian.AppendUint64(buf, c.minKey)
	}
	return append(append(buf, c.width), c.packed[:c.valueBytes(c.n)]...)
}

// readColumn reads one column payload of a rows-row group. Nothing it returns
// aliases the input.
func readColumn(r *binfmt.Reader, rows int) column {
	c := column{kind: colKind(r.U8()), n: rows}
	switch c.kind {
	case colRLE:
		runs := r.Count(uint64(r.U32()), 12)
		if r.Err() == nil && (runs == 0 || runs > rows) {
			r.Failf("%d runs for %d rows", runs, rows)
		}
		c.runVals = readF64s(r, runs)
		c.runLens = make([]uint32, runs)
		var total int64
		for i := range c.runLens {
			c.runLens[i] = r.U32()
			total += int64(c.runLens[i])
		}
		if r.Err() == nil && total != int64(rows) {
			r.Failf("run lengths sum to %d, want %d rows", total, rows)
		}
		return c
	case colDict:
		card := r.Count(uint64(r.U32()), 8)
		if r.Err() == nil && (card == 0 || card > rows) {
			r.Failf("dictionary cardinality %d out of range for %d rows", card, rows)
		}
		c.dict = readF64s(r, card)
	case colFOR:
		c.base = r.F64()
	case colRaw:
		c.minKey = r.U64()
	default:
		r.Failf("unknown column encoding %d", c.kind)
		return c
	}
	c.width = r.U8()
	switch {
	case r.Err() != nil:
		return c
	case c.kind == colDict && c.width != packWidth(uint64(len(c.dict)-1)):
		r.Failf("dictionary of %d values packed at %d bits", len(c.dict), c.width)
	case c.kind == colFOR && c.width > 32 || c.width > 57 && c.width != 64:
		r.Failf("%v bit width %d out of range", c.kind, c.width)
	}
	b := r.Next(int(packedBytes(rows, c.width)))
	if r.Err() != nil {
		return c
	}
	c.packed = make([]byte, len(b)+8) // unpack's padding
	copy(c.packed, b)
	if c.kind == colDict {
		packed, width, mask := c.packed, uint(c.width), c.mask()
		for p, end := uint(0), uint(rows)*width; p < end; p += width {
			if x := unpack(packed, p, mask); x >= uint64(len(c.dict)) {
				r.Failf("dictionary rank %d out of range", x)
				return c
			}
		}
	}
	c.pieces = c.ascendingPieces()
	return c
}

func readF64s(r *binfmt.Reader, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = r.F64()
	}
	return out
}

// Decode reads a table in the PAWC v5 binary format.
func Decode(in io.Reader) (*Table, error) {
	data, err := binfmt.ReadAll(in)
	if err != nil {
		return nil, err
	}
	r := binfmt.NewReader("colstore", data)
	if r.Header(colMagic, colVersion); r.Err() != nil {
		return nil, fmt.Errorf("%w: rebuild the store with `pawcli build -store` (this build reads PAWC v%d)", r.Err(), colVersion)
	}
	dims := r.Count(uint64(r.U16()), 2)
	if r.Err() == nil && dims == 0 {
		r.Failf("zero columns")
	}
	groups := r.U32()
	t := &Table{names: make([]string, dims)}
	for i := range t.names {
		t.names[i] = r.String16()
	}
	for gi := uint32(0); gi < groups && r.Err() == nil; gi++ {
		rows := int(r.U32())
		if r.Err() == nil && (rows == 0 || rows > maxDecodeRows) {
			r.Failf("group %d row count %d out of range", gi, rows)
		}
		cols := make([]column, dims)
		for d := range cols {
			cols[d] = readColumn(r, rows)
		}
		stats := sma.Aggregates{Count: int64(rows), Min: make([]float64, dims), Max: make([]float64, dims)}
		for d := 0; d < dims; d++ {
			stats.Min[d], stats.Max[d] = r.F64(), r.F64()
		}
		if r.Err() == nil {
			t.rows += rows
			t.groups = append(t.groups, newRowGroup(cols, rows, stats))
		}
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	return t, nil
}
