package dataset

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"paw/internal/binfmt"
)

// Binary format:
//
//	magic   uint32  'PAWD'
//	version uint16  1
//	dims    uint16
//	rows    uint64
//	for each column: nameLen uint16, name bytes
//	for each column: rows float64 values (little endian)
const (
	fileMagic   = 0x50415744 // "PAWD"
	fileVersion = 1
)

// WriteTo serialises the dataset to w in the PAWD binary format, 64 KiB at a
// time.
func (d *Dataset) WriteTo(w io.Writer) (int64, error) {
	buf := binfmt.AppendHeader(nil, fileMagic, fileVersion)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(d.Dims()))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(d.rows))
	for _, name := range d.names {
		if len(name) > math.MaxUint16 {
			return 0, fmt.Errorf("dataset: column name too long: %d bytes", len(name))
		}
		buf = binfmt.AppendString16(buf, name)
	}
	var n int64
	flush := func() error {
		m, err := w.Write(buf)
		n += int64(m)
		buf = buf[:0]
		return err
	}
	for _, col := range d.cols {
		for _, v := range col {
			if len(buf) >= 1<<16 {
				if err := flush(); err != nil {
					return n, err
				}
			}
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	return n, flush()
}

// ReadFile reads a dataset file: CSV (ReadCSV) when the name ends in .csv,
// PAWD (Read) otherwise.
func ReadFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var d *Dataset
	if strings.HasSuffix(path, ".csv") {
		d, err = ReadCSV(f)
	} else {
		d, err = Read(f)
	}
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return d, nil
}

// Read deserialises a dataset from the PAWD binary format. The row count is
// refused unless the input holds every value it claims, so a hostile header
// cannot drive the column allocations.
func Read(in io.Reader) (*Dataset, error) {
	data, err := binfmt.ReadAll(in)
	if err != nil {
		return nil, err
	}
	r := binfmt.NewReader("dataset", data)
	r.Header(fileMagic, fileVersion)
	dims := r.Count(uint64(r.U16()), 2)
	if r.Err() == nil && dims == 0 {
		r.Failf("zero dimensions")
	}
	rows := r.U64()
	names := make([]string, dims)
	for i := range names {
		names[i] = r.String16()
	}
	n := r.Count(rows, 8*max(dims, 1))
	if r.Err() != nil {
		return nil, r.Err()
	}
	cols := make([][]float64, dims)
	for i := range cols {
		cols[i] = make([]float64, n)
		for j := range cols[i] {
			cols[i][j] = r.F64()
		}
	}
	return New(names, cols)
}
