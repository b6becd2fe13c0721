package binfmt

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"paw/internal/geom"
)

// TestRoundTrip: every appender reads back through its Reader method, and
// nothing read aliases the input — a wire decoder's input is a pooled frame
// buffer that the next frame overwrites.
func TestRoundTrip(t *testing.T) {
	box := geom.Box{Lo: geom.Point{-1, math.Inf(-1)}, Hi: geom.Point{2.5, 0}}
	buf := AppendHeader(nil, 0x50415758, 3)
	buf = AppendString16(buf, "name")
	buf = AppendString32(buf, "")
	buf = AppendBytes32(buf, []byte{1, 2, 3})
	buf = AppendBytes32(buf, nil)
	buf = AppendBox(buf, box)

	r := NewReader("test", buf)
	r.Header(0x50415758, 3)
	s16, s32, b, empty, got := r.String16(), r.String32(), r.Bytes32(), r.Bytes32(), r.Box()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	clear(buf)
	if s16 != "name" || s32 != "" || !bytes.Equal(b, []byte{1, 2, 3}) || empty != nil {
		t.Fatalf("read %q %q %v %v after clearing the input", s16, s32, b, empty)
	}
	if !got.Equal(box) {
		t.Fatalf("box read back as %v, want %v", got, box)
	}
}

// TestReaderFailures: a short read, a count the input cannot pay for — also
// one whose byte size overflows — and a wrong header each fail, and the first
// failure sticks: every later read is zero.
func TestReaderFailures(t *testing.T) {
	header := AppendHeader(nil, 1, 2)
	for name, c := range map[string]struct {
		in   []byte
		read func(*Reader)
	}{
		"short":         {[]byte{1, 2, 3}, func(r *Reader) { r.U32() }},
		"count":         {make([]byte, 31), func(r *Reader) { r.Count(2, 16) }},
		"overflow":      {make([]byte, 64), func(r *Reader) { r.Count(1<<62, 16) }},
		"box":           {[]byte{1, 0, 0, 0}, func(r *Reader) { r.Box() }},
		"bad magic":     {AppendHeader(nil, 9, 2), func(r *Reader) { r.Header(1, 2) }},
		"bad version":   {AppendHeader(nil, 1, 9), func(r *Reader) { r.Header(1, 2) }},
		"string length": {[]byte{9, 0, 'a'}, func(r *Reader) { r.String16() }},
		"bytes length":  {[]byte{0xff, 0xff, 0xff, 0xff}, func(r *Reader) { r.Bytes32() }},
		"short header":  {header[:5], func(r *Reader) { r.Header(1, 2) }},
	} {
		r := NewReader("test", c.in)
		c.read(r)
		if r.Err() == nil {
			t.Errorf("%s: no error", name)
			continue
		}
		if v := r.U8(); v != 0 || r.Count(0, 1) != 0 || r.Err() == nil {
			t.Errorf("%s: the failure did not stick", name)
		}
	}
}

// TestReadAll: a reader that knows its size (bytes.Reader by Len, a file by
// Stat) and one that does not (io.MultiReader) read to the same bytes.
func TestReadAll(t *testing.T) {
	want := bytes.Repeat([]byte("PAWD"), 3000)
	path := filepath.Join(t.TempDir(), "x.pawd")
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for name, in := range map[string]io.Reader{
		"bytes.Reader": bytes.NewReader(want),
		"file":         f,
		"stream":       io.MultiReader(bytes.NewReader(want[:5]), bytes.NewReader(want[5:])),
	} {
		got, err := ReadAll(in)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: read %d bytes (err %v), want %d", name, len(got), err, len(want))
		}
	}
}
