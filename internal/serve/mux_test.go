package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// blob is the trivial test message: its encoding is itself.
type blob []byte

func (b blob) AppendWire(buf []byte) []byte { return append(buf, b...) }

// startServer runs a frame server for every accepted connection and returns
// its address. The server shuts down via t.Cleanup.
func startServer(t *testing.T, maxInflight int, h Handler) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				ServeConn(c, maxInflight, h)
			}()
		}
	}()
	t.Cleanup(func() {
		l.Close()
		wg.Wait()
	})
	return l.Addr().String()
}

// echoHandler replies with the request payload under typ+1.
func echoHandler(typ byte, payload []byte) (byte, Marshaler, error) {
	return typ + 1, blob(append([]byte(nil), payload...)), nil
}

func TestMuxConcurrentCallsPipeline(t *testing.T) {
	addr := startServer(t, 32, echoHandler)
	m, err := DialMux(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	const goroutines, calls = 16, 50
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				want := []byte(fmt.Sprintf("g%d-call%d", g, i))
				var got []byte
				err := m.Call(context.Background(), time.Time{}, 5, blob(want), func(typ byte, payload []byte) error {
					if typ != 6 {
						return fmt.Errorf("resp typ=%d", typ)
					}
					got = append(got[:0], payload...)
					return nil
				})
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, want) {
					errs <- fmt.Errorf("echo mismatch: %q != %q", got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestMuxDeadlineDoesNotPoisonConnection: a call abandoned by its deadline
// leaves the mux healthy — the late response is discarded by sequence and a
// subsequent call on the same connection succeeds. This is the property the
// old one-codec-per-call transport lacked.
func TestMuxDeadlineDoesNotPoisonConnection(t *testing.T) {
	block := make(chan struct{})
	addr := startServer(t, 8, func(typ byte, payload []byte) (byte, Marshaler, error) {
		if bytes.Equal(payload, []byte("slow")) {
			<-block
		}
		return typ, blob(append([]byte(nil), payload...)), nil
	})
	m, err := DialMux(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err = m.Call(ctx, time.Time{}, 1, blob("slow"), func(byte, []byte) error { return nil })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("slow call: err=%v, want deadline exceeded", err)
	}
	if IsNotSent(err) {
		t.Fatal("the request was written; the expiry must not be reported as not-sent")
	}
	close(block) // unwedge the server; its late response must be discarded

	var got []byte
	err = m.Call(context.Background(), time.Time{}, 2, blob("after"), func(_ byte, payload []byte) error {
		got = append(got[:0], payload...)
		return nil
	})
	if err != nil {
		t.Fatalf("call after abandoned call: %v", err)
	}
	if string(got) != "after" {
		t.Fatalf("got %q", got)
	}
}

// TestMuxNotSentOnExpiredContext: a context already done when the call
// starts must fail with NotSentError without touching the stream.
func TestMuxNotSentOnExpiredContext(t *testing.T) {
	addr := startServer(t, 8, echoHandler)
	m, err := DialMux(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = m.Call(ctx, time.Time{}, 1, blob("never"), func(byte, []byte) error { return nil })
	if !IsNotSent(err) {
		t.Fatalf("err=%v, want NotSentError", err)
	}
	// The connection must still work.
	if err := m.Call(context.Background(), time.Time{}, 1, blob("ok"), func(byte, []byte) error { return nil }); err != nil {
		t.Fatalf("call after not-sent: %v", err)
	}
}

// TestMuxConnectionDownFailsInflight: killing the server connection fails
// in-flight and future calls with ClosedError (never NotSentError — the
// in-flight request did reach the wire).
func TestMuxConnectionDownFailsInflight(t *testing.T) {
	conns := make(chan net.Conn, 1)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		var magic [4]byte
		io.ReadFull(c, magic[:])
		conns <- c // never answer; the test kills the conn mid-call
	}()
	m, err := DialMux(context.Background(), l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	go func() {
		c := <-conns
		time.Sleep(20 * time.Millisecond)
		c.Close()
	}()
	err = m.Call(context.Background(), time.Time{}, 1, blob("doomed"), func(byte, []byte) error { return nil })
	var ce *ClosedError
	if !errors.As(err, &ce) {
		t.Fatalf("err=%v, want ClosedError", err)
	}
	if IsNotSent(err) {
		t.Fatal("a sent request must not report not-sent")
	}
	// Future calls fail fast the same way.
	err = m.Call(context.Background(), time.Time{}, 1, blob("late"), func(byte, []byte) error { return nil })
	if !errors.As(err, &ce) {
		t.Fatalf("post-close err=%v, want ClosedError", err)
	}
}

// TestMuxCorruptStreamKillsConnection: garbage on the wire fails the session
// rather than desynchronizing it.
func TestMuxCorruptStreamKillsConnection(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		var magic [4]byte
		io.ReadFull(c, magic[:])
		var hdr [headerLen]byte
		if _, _, _, err := ReadFrame(c, &hdr, nil); err != nil {
			return
		}
		// Answer with a frame whose CRC is wrong.
		frame := AppendFrame(nil, 2, 1, []byte("resp"))
		frame[len(frame)-1] ^= 0xFF
		c.Write(frame)
	}()
	m, err := DialMux(context.Background(), l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	err = m.Call(context.Background(), time.Time{}, 1, blob("req"), func(byte, []byte) error { return nil })
	if err == nil {
		t.Fatal("corrupt response must fail the call")
	}
	var ce *ClosedError
	if !errors.As(err, &ce) {
		t.Fatalf("err=%v, want ClosedError (stream abandoned)", err)
	}
	if !errors.Is(ce.Cause, ErrCorrupt) {
		t.Fatalf("cause=%v, want ErrCorrupt", ce.Cause)
	}
}

// TestServeConnBoundsInflight: the server never runs more than maxInflight
// handlers at once, even when many more requests are pipelined.
func TestServeConnBoundsInflight(t *testing.T) {
	const bound = 4
	var mu sync.Mutex
	inflight, peak := 0, 0
	release := make(chan struct{})
	addr := startServer(t, bound, func(typ byte, payload []byte) (byte, Marshaler, error) {
		mu.Lock()
		inflight++
		if inflight > peak {
			peak = inflight
		}
		mu.Unlock()
		<-release
		mu.Lock()
		inflight--
		mu.Unlock()
		return typ, blob(nil), nil
	})
	m, err := DialMux(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	const total = 16
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.Call(context.Background(), time.Time{}, 1, blob("x"), func(byte, []byte) error { return nil })
		}()
	}
	time.Sleep(50 * time.Millisecond) // let the pipeline fill
	close(release)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if peak > bound {
		t.Fatalf("peak in-flight handlers = %d, want <= %d", peak, bound)
	}
	if peak == 0 {
		t.Fatal("no handler ever ran")
	}
}

// TestServeConnVerifiesPreamble: ServeConn refuses a peer that does not open
// with Magic — ErrCorrupt, before any frame reaches the handler — and reports
// a peer that hangs up without a word as a clean io.EOF.
func TestServeConnVerifiesPreamble(t *testing.T) {
	for _, c := range []struct {
		name  string
		hello string
		want  error
	}{
		{"wrong protocol", "GET / HTTP/1.1\r\n\r\n", ErrCorrupt},
		{"silent hang-up", "", io.EOF},
	} {
		t.Run(c.name, func(t *testing.T) {
			client, server := net.Pipe()
			go func() {
				client.Write([]byte(c.hello))
				client.Close()
			}()
			err := ServeConn(server, 4, func(byte, []byte) (byte, Marshaler, error) {
				t.Error("handler ran for a peer that sent no preamble")
				return 0, blob(nil), nil
			})
			if !errors.Is(err, c.want) {
				t.Fatalf("err=%v, want %v", err, c.want)
			}
		})
	}
}

// TestMuxCallDeadlineEndsTheWait: per-call deadlines on a handler that never
// answers end each call with context.DeadlineExceeded, not before its own
// deadline and in deadline order however the calls were issued (the one
// connection timer re-arms from deadline to deadline). The requests were
// sent, so none is a NotSentError; a call whose deadline has already passed
// is one. The connection is untouched: the next call is echoed.
func TestMuxCallDeadlineEndsTheWait(t *testing.T) {
	block := make(chan struct{})
	addr := startServer(t, 8, func(typ byte, payload []byte) (byte, Marshaler, error) {
		if bytes.HasPrefix(payload, []byte("silent")) {
			<-block
		}
		return typ + 1, blob(append([]byte(nil), payload...)), nil
	})
	defer close(block) // before startServer's cleanup waits for its handlers
	m, err := DialMux(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	start := time.Now()
	after := []time.Duration{60 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond}
	type ended struct {
		i   int
		at  time.Time
		err error
	}
	done := make(chan ended, len(after))
	for i, d := range after {
		go func() {
			err := m.Call(context.Background(), start.Add(d), 1, blob(fmt.Sprintf("silent%d", i)), func(byte, []byte) error { return nil })
			done <- ended{i, time.Now(), err}
		}()
	}
	var order []int
	for range after {
		e := <-done
		if !errors.Is(e.err, context.DeadlineExceeded) || IsNotSent(e.err) {
			t.Fatalf("call %d: err=%v, want a sent call's context.DeadlineExceeded", e.i, e.err)
		}
		if by := start.Add(after[e.i]); e.at.Before(by) {
			t.Fatalf("call %d ended %v before its deadline", e.i, by.Sub(e.at))
		}
		order = append(order, e.i)
	}
	if fmt.Sprint(order) != "[1 2 0]" {
		t.Errorf("calls ended in order %v, want their deadlines' order [1 2 0]", order)
	}
	err = m.Call(context.Background(), start, 1, blob("silent-late"), func(byte, []byte) error { return nil })
	if !IsNotSent(err) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("call past its deadline: err=%v, want a NotSentError wrapping context.DeadlineExceeded", err)
	}

	var got []byte
	err = m.Call(context.Background(), time.Now().Add(5*time.Second), 2, blob("after"), func(_ byte, payload []byte) error {
		got = append(got[:0], payload...)
		return nil
	})
	if err != nil || string(got) != "after" {
		t.Fatalf("call after the expiries: err=%v payload=%q, want the echo", err, got)
	}
}

// TestMuxWedgedPeerClosedAtDeadline: a peer that never reads, sent a request
// larger than the socket buffers, leaves the write blocked. The connection is
// closed when that call's deadline passes — not before — and every waiter
// sees a ClosedError: the call answered with nothing, the blocked writer and
// the call queued behind it. No goroutine outlives the teardown.
func TestMuxWedgedPeerClosedAtDeadline(t *testing.T) {
	base := runtime.NumGoroutine()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	peer := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		c.(*net.TCPConn).SetReadBuffer(4 << 10)
		var magic [4]byte
		io.ReadFull(c, magic[:])
		peer <- c // never read again
	}()
	nc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	nc.(*net.TCPConn).SetWriteBuffer(4 << 10)
	m, err := NewMux(nc)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	c := <-peer
	defer c.Close()

	nop := func(byte, []byte) error { return nil }
	errs := make(chan error, 3)
	go func() { errs <- m.Call(context.Background(), time.Time{}, 1, blob("unanswered"), nop) }()
	waitUntil(t, "the first request to be sent", func() bool { return m.seq.Load() == 1 && m.writing.Load() == 0 })
	// The large call's write must start before its deadline. A goroutine the
	// scheduler starves past it gets a NotSentError, the connection untouched;
	// then the call is made again with a fresh deadline.
	var by time.Time
	for attempt := 1; ; attempt++ {
		by = time.Now().Add(100 * time.Millisecond)
		large := make(chan error, 1)
		go func(by time.Time) { large <- m.Call(context.Background(), by, 1, blob(make([]byte, 4<<20)), nop) }(by)
		waitUntil(t, "the large write to block", func() bool { return m.writing.Load() != 0 || len(large) != 0 })
		select {
		case err := <-large:
			var ns *NotSentError
			if errors.As(err, &ns) && attempt < 20 {
				continue
			}
			errs <- err // the reaper has closed the connection already, or the call failed
		default:
			go func() { errs <- <-large }() // the write is blocked
		}
		break
	}
	go func() { errs <- m.Call(context.Background(), time.Time{}, 1, blob("queued"), nop) }()
	for i := 0; i < 3; i++ {
		err := <-errs
		var ce *ClosedError
		if !errors.As(err, &ce) {
			t.Fatalf("err=%v, want ClosedError", err)
		}
		if now := time.Now(); now.Before(by) {
			t.Fatalf("connection closed %v before the deadline", by.Sub(now))
		}
	}

	m.Close()
	c.Close()
	l.Close()
	waitUntil(t, "the goroutine baseline", func() bool { return runtime.NumGoroutine() <= base })
}

// waitUntil polls cond until it holds, failing the test after 5s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
