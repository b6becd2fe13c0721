package layout

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"paw/internal/binfmt"
	"paw/internal/geom"
)

// Binary layout format ("PAWL"): the master's durable metadata — the scope
// the layout was built for (δ and QH), the full partition tree with
// descriptors, partition sizes and precise descriptors, the column names and
// the build recipe — from which a master boots and drift watches and rebuilds.
// Sample row indices are construction-time state and are not persisted. Every
// box has the root's dimensionality; a file names every dimension or none and
// carries a recipe that can be built or none (both words 0).
//
//	magic    uint32 'PAWL'
//	version  uint16 4
//	method   uint16 len + bytes
//	rowBytes, totalBytes, unrouted int64
//	delta    float64
//	hist     nHist uint32, boxes
//	tree     pre-order; per node:
//	           descTag uint8 (0 rect, 1 irregular)
//	           desc    rect: box | irregular: outer box, nHoles uint32, holes
//	           isLeaf  uint8
//	           if leaf: id int64, fullRows int64,
//	                    nPrecise uint32, precise boxes
//	           nChildren uint32, children...
//	names    nNames uint16 (0 or dims), each uint16 len + bytes
//	recipe   minRows int64 (bmin in sample rows), sampleRate float64
//	box      dims uint16, then 2·dims float64 (lo..., hi...)
const (
	layoutMagic   = 0x5041574C // "PAWL"
	layoutVersion = 4
)

// Encode serialises the layout.
func (l *Layout) Encode(w io.Writer) error {
	tooLong := func(s string) bool { return len(s) > math.MaxUint16 }
	if tooLong(l.Method) || len(l.Names) > math.MaxUint16 || slices.ContainsFunc(l.Names, tooLong) {
		return fmt.Errorf("layout: method name, column name or column list too long")
	}
	buf := binfmt.AppendHeader(nil, layoutMagic, layoutVersion)
	buf = binfmt.AppendString16(buf, l.Method)
	for _, v := range []int64{l.RowBytes, l.TotalBytes, l.Unrouted} {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(l.Delta))
	buf = appendBoxes(buf, l.Hist)
	buf, err := appendNode(buf, l.Root)
	if err != nil {
		return err
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(l.Names)))
	for _, name := range l.Names {
		buf = binfmt.AppendString16(buf, name)
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(l.MinRows))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(l.SampleRate))
	_, err = w.Write(buf)
	return err
}

func appendNode(buf []byte, n *Node) ([]byte, error) {
	switch d := n.Desc.(type) {
	case Rect:
		buf = binfmt.AppendBox(append(buf, 0), d.Box)
	case Irregular:
		buf = binfmt.AppendBox(append(buf, 1), d.Outer)
		buf = appendBoxes(buf, d.Holes)
	default:
		return nil, fmt.Errorf("layout: cannot serialise descriptor %T", n.Desc)
	}
	if n.IsLeaf() {
		buf = append(buf, 1)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(n.Part.ID))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(n.Part.FullRows))
		buf = appendBoxes(buf, n.Part.Precise)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(n.Children)))
	for _, c := range n.Children {
		var err error
		if buf, err = appendNode(buf, c); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

func appendBoxes(buf []byte, boxes []geom.Box) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(boxes)))
	for _, b := range boxes {
		buf = binfmt.AppendBox(buf, b)
	}
	return buf
}

// ReadFile decodes the layout file at path.
func ReadFile(path string) (*Layout, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	l, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return l, nil
}

// Decode deserialises a layout written by Encode. The result is fully
// routable and costable; sample rows are absent.
func Decode(in io.Reader) (*Layout, error) {
	data, err := binfmt.ReadAll(in)
	if err != nil {
		return nil, err
	}
	r := binfmt.NewReader("layout", data)
	if r.Header(layoutMagic, layoutVersion); r.Err() != nil {
		return nil, fmt.Errorf("%w: rebuild with `pawcli build` (version %d carries the build recipe)", r.Err(), layoutVersion)
	}
	l := &Layout{Method: r.String16(), RowBytes: r.I64(), TotalBytes: r.I64(), Unrouted: r.I64(), Delta: r.F64()}
	if r.Err() == nil && !(l.Delta >= 0) {
		r.Failf("δ %g is not a threshold", l.Delta)
	}
	dims := 0
	l.Hist = readBoxes(r, &dims)
	l.Root = readNode(r, l, &dims)
	for n := r.Count(uint64(r.U16()), 2); len(l.Names) < n; {
		l.Names = append(l.Names, r.String16())
	}
	if n := len(l.Names); r.Err() == nil && n > 0 && n != dims {
		r.Failf("%d column names for a %d-d layout", n, dims)
	}
	l.MinRows, l.SampleRate = int(r.I64()), r.F64()
	if r.Err() == nil && (l.MinRows != 0 || l.SampleRate != 0) {
		if err := l.CheckRecipe(); err != nil {
			r.Failf("%v", err)
		}
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	// Parts were appended in pre-order; verify the stored IDs agree so
	// PartitionsFor indexing stays valid.
	for i, p := range l.Parts {
		if int(p.ID) != i {
			return nil, fmt.Errorf("layout: partition ID %d at position %d", p.ID, i)
		}
		p.RowBytes = l.RowBytes
	}
	// The routing index is derived state: rebuild it so a decoded layout
	// routes exactly like the sealed original.
	l.buildIndex()
	return l, nil
}

// readBox reads one box, refusing a dimensionality no layout has and one
// that differs from the file's: *dims is set by the first box read and holds
// every later one to it.
func readBox(r *binfmt.Reader, dims *int) geom.Box {
	b := r.Box()
	switch {
	case r.Err() != nil:
	case b.Dims() == 0 || b.Dims() > 1024:
		r.Failf("implausible box dimensionality %d", b.Dims())
	case *dims == 0:
		*dims = b.Dims()
	case b.Dims() != *dims:
		r.Failf("a %d-d box in a %d-d layout", b.Dims(), *dims)
	}
	return b
}

// readBoxes reads a uint32-counted box list; each box costs at least 18
// bytes.
func readBoxes(r *binfmt.Reader, dims *int) []geom.Box {
	n := r.Count(uint64(r.U32()), 18)
	if n == 0 {
		return nil
	}
	boxes := make([]geom.Box, n)
	for i := range boxes {
		boxes[i] = readBox(r, dims)
	}
	return boxes
}

// readNode reads a node and its subtree, appending its leaves to l.Parts.
// Each node costs at least 24 bytes, which bounds the child count.
func readNode(r *binfmt.Reader, l *Layout, dims *int) *Node {
	node := &Node{}
	switch tag := r.U8(); {
	case r.Err() != nil:
		return nil
	case tag == 0:
		node.Desc = Rect{Box: readBox(r, dims)}
	case tag == 1:
		outer, holes := readBox(r, dims), readBoxes(r, dims)
		if r.Err() != nil {
			return nil
		}
		node.Desc = NewIrregular(outer, holes)
	default:
		r.Failf("unknown descriptor tag %d", tag)
		return nil
	}
	isLeaf := r.U8() == 1
	if isLeaf {
		node.Part = &Partition{ID: ID(r.I64()), Desc: node.Desc, FullRows: r.I64(), Precise: readBoxes(r, dims)}
		l.Parts = append(l.Parts, node.Part)
	}
	nc := r.Count(uint64(r.U32()), 24)
	if isLeaf && nc > 0 {
		r.Failf("leaf with %d children", nc)
	}
	for i := 0; i < nc && r.Err() == nil; i++ {
		node.Children = append(node.Children, readNode(r, l, dims))
	}
	return node
}
