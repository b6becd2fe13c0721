package serve

import (
	"bufio"
	"context"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countHandlerStarts installs the handler-start hook until the test ends.
// Call it before startServer: cleanups run last-in first-out, so the hook is
// cleared only once the server's handlers are gone.
func countHandlerStarts(t *testing.T) *atomic.Int64 {
	var n atomic.Int64
	testHookHandlerStart = func() { n.Add(1) }
	t.Cleanup(func() { testHookHandlerStart = nil })
	return &n
}

// TestServeConnHandlersResident: requests run on goroutines that outlive
// them, never more than maxInflight, all gone when ServeConn returns.
func TestServeConnHandlersResident(t *testing.T) {
	t.Run("sequential requests reuse a handler", func(t *testing.T) {
		starts := countHandlerStarts(t)
		m, err := DialMux(startServer(t, 8, echoHandler))
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		const calls = 1000
		for i := 0; i < calls; i++ {
			if err := m.Call(context.Background(), time.Time{}, 1, blob("ping"), func(byte, []byte) error { return nil }); err != nil {
				t.Fatal(err)
			}
		}
		// One handler serves them all. A second can start once: the reply is
		// written before the handler parks, so the next frame may arrive first.
		// After that one of the two is always parked when a frame comes in.
		if n := starts.Load(); n < 1 || n > 2 {
			t.Fatalf("%d sequential requests started %d handlers, want 1 (2 at most)", calls, n)
		}
	})

	t.Run("a pipelined burst is bounded, answered in completion order and drained", func(t *testing.T) {
		const bound, total = 4, 8
		starts := countHandlerStarts(t)
		var running, peak atomic.Int64
		started := make(chan uint64, total) // sized to the number of sends
		release := make([]chan struct{}, total)
		for i := range release {
			release[i] = make(chan struct{})
		}
		h := func(typ byte, payload []byte) (byte, Marshaler, error) {
			n := running.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			i := payload[0]
			started <- uint64(i)
			<-release[i]
			running.Add(-1)
			return typ, blob{i}, nil
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		served := make(chan error, 1)
		go func() {
			c, err := l.Accept()
			if err != nil {
				served <- err
				return
			}
			defer c.Close()
			served <- ServeConn(c, bound, h)
		}()
		c, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		out := append([]byte(nil), Magic[:]...)
		for i := 0; i < total; i++ {
			out = AppendFrame(out, 7, uint64(i), []byte{byte(i)})
		}
		if _, err := c.Write(out); err != nil {
			t.Fatal(err)
		}
		isRunning := make(map[uint64]bool)
		awaitStart := func() {
			isRunning[<-started] = true
		}
		for i := 0; i < bound; i++ {
			awaitStart()
		}
		// Finish them in an order that is neither arrival order nor its
		// reverse; each reply must be the one just released, and each release
		// admits exactly the next waiting frame.
		r := bufio.NewReader(c)
		var hdr [headerLen]byte
		for step, i := range []uint64{3, 1, 5, 0, 2, 4, 7, 6} {
			if !isRunning[i] {
				t.Fatalf("step %d: request %d is not running (running: %v)", step, i, isRunning)
			}
			close(release[i])
			delete(isRunning, i)
			_, seq, payload, err := ReadFrame(r, &hdr, nil)
			if err != nil {
				t.Fatal(err)
			}
			if seq != i || len(payload) != 1 || uint64(payload[0]) != i {
				t.Fatalf("step %d: reply seq %d payload %v, want request %d", step, seq, payload, i)
			}
			if step < total-bound {
				awaitStart()
			}
		}
		if p := peak.Load(); p != bound {
			t.Errorf("peak running handlers = %d, want %d", p, bound)
		}
		if n := starts.Load(); n != bound {
			t.Errorf("%d handler goroutines started, want %d", n, bound)
		}
		c.Close()
		if err := <-served; err == nil {
			t.Error("ServeConn returned nil after the peer hung up")
		}
		// ServeConn has returned: no goroutine may still be inside it.
		buf := make([]byte, 1<<20)
		if dump := string(buf[:runtime.Stack(buf, true)]); strings.Contains(dump, "serve.ServeConn.func") {
			t.Errorf("a handler goroutine outlived ServeConn:\n%s", dump)
		}
	})
}

// countingConn counts the reads that returned data.
type countingConn struct {
	net.Conn
	reads atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.reads.Add(1)
	}
	return n, err
}

// TestMuxOneReadPerReply: the response reader is buffered, so a small reply
// costs one read of the connection — header and payload together — not two.
func TestMuxOneReadPerReply(t *testing.T) {
	raw, err := net.Dial("tcp", startServer(t, 8, echoHandler))
	if err != nil {
		t.Fatal(err)
	}
	cc := &countingConn{Conn: raw}
	m, err := NewMux(cc)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	call := func() {
		t.Helper()
		if err := m.Call(context.Background(), time.Time{}, 1, blob("a small payload"), func(byte, []byte) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		call() // warm
	}
	const calls = 200
	before := cc.reads.Load()
	for i := 0; i < calls; i++ {
		call()
	}
	if got := cc.reads.Load() - before; got > calls {
		t.Fatalf("%d replies cost %d reads of the connection, want at most one each", calls, got)
	}
}

// BenchmarkServeConnEcho is one request/response round trip over loopback
// TCP through Mux.Call and ServeConn, with 1 and with 8 calls in flight
// (`make bench-request-path`), under three deadline regimes: none; the
// context's (every benchmark client's queries run under one); and the
// context's plus the call's own bound, 5s from each call (every master call
// to a worker carries both).
func BenchmarkServeConnEcho(b *testing.B) {
	for _, deadline := range []string{"none", "ctx", "call"} {
		for _, inflight := range []int{1, 8} {
			b.Run("deadline="+deadline+"/inflight="+strconv.Itoa(inflight), func(b *testing.B) {
				benchEcho(b, deadline, inflight)
			})
		}
	}
}

func benchEcho(b *testing.B, deadline string, inflight int) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	var srv sync.WaitGroup
	srv.Add(1)
	go func() {
		defer srv.Done()
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		ServeConn(c, 8, echoHandler)
	}()
	m, err := DialMux(l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if deadline != "none" {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Hour)
		defer cancel()
	}
	req := blob("SELECT * FROM t WHERE a >= 0.25 AND a <= 0.5")
	dec := func(byte, []byte) error { return nil }
	b.ReportAllocs()
	b.ResetTimer()
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < inflight; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				var by time.Time
				if deadline == "call" {
					by = time.Now().Add(5 * time.Second)
				}
				if err := m.Call(ctx, by, 1, req, dec); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	m.Close()
	l.Close()
	srv.Wait()
}
