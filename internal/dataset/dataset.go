// Package dataset provides the in-memory table substrate the partitioner
// operates on: a column-major matrix of float64 attributes together with
// synthetic generators that stand in for the paper's TPC-H lineitem table
// and OSM point extract, plus sampling and binary (de)serialisation.
//
// All partitioning methods in the paper consume only numeric attributes
// (SQL predicates are rewritten to ranges, §III-B), so a float64 matrix is a
// faithful substrate. Row size is modelled as 16 bytes per attribute, which
// reproduces the paper's ~128 B/row for the 8-attribute lineitem table.
package dataset

import (
	"fmt"
	"math"

	"paw/internal/geom"
)

// BytesPerAttribute is the simulated storage footprint of one attribute of
// one record. 16·dims matches the paper's 75 GB / 600 M rows ≈ 128 B per
// 8-attribute row.
const BytesPerAttribute = 16

// Dataset is an immutable column-major table of float64 attributes.
type Dataset struct {
	names []string
	cols  [][]float64
	rows  int
}

// New builds a dataset from column slices. All columns must share one
// length. The column slices are retained, not copied.
func New(names []string, cols [][]float64) (*Dataset, error) {
	if len(names) != len(cols) {
		return nil, fmt.Errorf("dataset: %d names for %d columns", len(names), len(cols))
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("dataset: no columns")
	}
	rows := len(cols[0])
	for i, c := range cols {
		if len(c) != rows {
			return nil, fmt.Errorf("dataset: column %q has %d rows, want %d", names[i], len(c), rows)
		}
	}
	return &Dataset{names: names, cols: cols, rows: rows}, nil
}

// MustNew is New but panics on error; intended for tests and generators
// whose inputs are correct by construction.
func MustNew(names []string, cols [][]float64) *Dataset {
	d, err := New(names, cols)
	if err != nil {
		panic(err)
	}
	return d
}

// NumRows returns the number of records.
func (d *Dataset) NumRows() int { return d.rows }

// Dims returns the number of attributes.
func (d *Dataset) Dims() int { return len(d.cols) }

// Names returns the attribute names. Callers must not mutate the slice.
func (d *Dataset) Names() []string { return d.names }

// At returns attribute dim of row i.
func (d *Dataset) At(i, dim int) float64 { return d.cols[dim][i] }

// Point materialises row i as a geom.Point. It allocates; hot loops should
// use At directly.
func (d *Dataset) Point(i int) geom.Point {
	p := make(geom.Point, len(d.cols))
	for dim := range d.cols {
		p[dim] = d.cols[dim][i]
	}
	return p
}

// Column returns the raw column slice for dimension dim. Callers must not
// mutate it.
func (d *Dataset) Column(dim int) []float64 { return d.cols[dim] }

// RowBytes returns the simulated size in bytes of one record.
func (d *Dataset) RowBytes() int64 { return int64(d.Dims()) * BytesPerAttribute }

// TotalBytes returns the simulated size in bytes of the whole dataset.
func (d *Dataset) TotalBytes() int64 { return int64(d.rows) * d.RowBytes() }

// Domain returns the MBR of all records.
func (d *Dataset) Domain() geom.Box {
	lo := make(geom.Point, d.Dims())
	hi := make(geom.Point, d.Dims())
	for dim, col := range d.cols {
		mn, mx := math.Inf(1), math.Inf(-1)
		for _, v := range col {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		lo[dim], hi[dim] = mn, mx
	}
	return geom.Box{Lo: lo, Hi: hi}
}

// RowInBox reports whether row i lies inside the closed box q. q may have
// fewer dimensions than the dataset only if it has exactly d.Dims()
// dimensions — mismatches are programmer errors and panic via slice bounds.
func (d *Dataset) RowInBox(i int, q geom.Box) bool {
	for dim := range d.cols {
		v := d.cols[dim][i]
		if v < q.Lo[dim] || v > q.Hi[dim] {
			return false
		}
	}
	return true
}

// CountInBox returns the number of records inside q, considering only the
// rows listed in idx (or all rows when idx is nil).
func (d *Dataset) CountInBox(q geom.Box, idx []int) int {
	n := 0
	if idx == nil {
		for i := 0; i < d.rows; i++ {
			if d.RowInBox(i, q) {
				n++
			}
		}
		return n
	}
	for _, i := range idx {
		if d.RowInBox(i, q) {
			n++
		}
	}
	return n
}

// Project returns a new dataset keeping only the first k attributes. Used by
// the dimensionality sweep (Fig. 16): queries are posed on the first #dims
// attributes while partitions store all dimensions; projecting the *query*
// space is achieved by building layouts over the projected dataset.
func (d *Dataset) Project(k int) *Dataset {
	if k <= 0 || k > d.Dims() {
		panic(fmt.Sprintf("dataset: project to %d of %d dims", k, d.Dims()))
	}
	return &Dataset{names: d.names[:k], cols: d.cols[:k], rows: d.rows}
}

// Normalize returns a copy with every attribute affinely mapped to [0, 1]
// (degenerate attributes map to 0). The paper's workload-distance threshold
// δ (Definition 1) is a single L∞ value across dimensions, which only makes
// sense on commensurable scales; the evaluation harness therefore
// partitions normalized datasets.
func (d *Dataset) Normalize() *Dataset {
	dom := d.Domain()
	cols := make([][]float64, d.Dims())
	for dim := range cols {
		lo := dom.Lo[dim]
		span := dom.Hi[dim] - lo
		src := d.cols[dim]
		c := make([]float64, len(src))
		if span > 0 {
			inv := 1 / span
			for i, v := range src {
				c[i] = (v - lo) * inv
			}
		}
		cols[dim] = c
	}
	names := make([]string, len(d.names))
	copy(names, d.names)
	return &Dataset{names: names, cols: cols, rows: d.rows}
}
