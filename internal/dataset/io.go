package dataset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
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

// WriteTo serialises the dataset to w in the PAWD binary format.
func (d *Dataset) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	write := func(v any) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	if err := write(uint32(fileMagic)); err != nil {
		return n, err
	}
	if err := write(uint16(fileVersion)); err != nil {
		return n, err
	}
	if err := write(uint16(d.Dims())); err != nil {
		return n, err
	}
	if err := write(uint64(d.rows)); err != nil {
		return n, err
	}
	for _, name := range d.names {
		if len(name) > math.MaxUint16 {
			return n, fmt.Errorf("dataset: column name too long: %d bytes", len(name))
		}
		if err := write(uint16(len(name))); err != nil {
			return n, err
		}
		m, err := bw.WriteString(name)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	buf := make([]byte, 8)
	for _, col := range d.cols {
		for _, v := range col {
			binary.LittleEndian.PutUint64(buf, math.Float64bits(v))
			m, err := bw.Write(buf)
			n += int64(m)
			if err != nil {
				return n, err
			}
		}
	}
	return n, bw.Flush()
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

// Read deserialises a dataset from the PAWD binary format.
func Read(r io.Reader) (*Dataset, error) {
	br := bufio.NewReader(r)
	var magic uint32
	if err := binary.Read(br, binary.LittleEndian, &magic); err != nil {
		return nil, fmt.Errorf("dataset: reading magic: %w", err)
	}
	if magic != fileMagic {
		return nil, fmt.Errorf("dataset: bad magic %#x", magic)
	}
	var version, dims uint16
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, err
	}
	if version != fileVersion {
		return nil, fmt.Errorf("dataset: unsupported version %d", version)
	}
	if err := binary.Read(br, binary.LittleEndian, &dims); err != nil {
		return nil, err
	}
	if dims == 0 {
		return nil, fmt.Errorf("dataset: zero dimensions")
	}
	var rows uint64
	if err := binary.Read(br, binary.LittleEndian, &rows); err != nil {
		return nil, err
	}
	names := make([]string, dims)
	for i := range names {
		var nameLen uint16
		if err := binary.Read(br, binary.LittleEndian, &nameLen); err != nil {
			return nil, err
		}
		b := make([]byte, nameLen)
		if _, err := io.ReadFull(br, b); err != nil {
			return nil, err
		}
		names[i] = string(b)
	}
	cols := make([][]float64, dims)
	buf := make([]byte, 8)
	for i := range cols {
		col := make([]float64, rows)
		for j := range col {
			if _, err := io.ReadFull(br, buf); err != nil {
				return nil, fmt.Errorf("dataset: reading column %d row %d: %w", i, j, err)
			}
			col[j] = math.Float64frombits(binary.LittleEndian.Uint64(buf))
		}
		cols[i] = col
	}
	return New(names, cols)
}
