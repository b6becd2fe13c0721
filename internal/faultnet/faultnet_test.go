package faultnet

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// numAccepted returns how many connections the listener has accepted so far
// (including rejected ones).
func (l *Listener) numAccepted() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.accepted
}

// pipeServer starts a loopback listener wrapped in the script and serves
// each accepted connection with echo (read a frame, write it back).
func pipeServer(t *testing.T, s Script) (addr string, l *Listener) {
	t.Helper()
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l = Wrap(inner, s)
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				buf := make([]byte, 64)
				for {
					n, err := c.Read(buf)
					if err != nil {
						return
					}
					if _, err := c.Write(buf[:n]); err != nil {
						return
					}
				}
			}()
		}
	}()
	return l.Addr().String(), l
}

func dial(t *testing.T, addr string) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestCleanPassThrough(t *testing.T) {
	addr, _ := pipeServer(t, Script{Seed: 1})
	c := dial(t, addr)
	msg := []byte("hello, faultnet")
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echo = %q, want %q", got, msg)
	}
}

func TestResetOnRead(t *testing.T) {
	addr, _ := pipeServer(t, Script{Seed: 1, Rules: []Rule{
		{Conn: 0, Op: OnRead, Call: 0, Action: Reset},
	}})
	c := dial(t, addr)
	c.Write([]byte("doomed"))
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 8)
	if _, err := c.Read(buf); err == nil {
		t.Fatal("read from a reset connection must fail")
	}
}

func TestRejectConnection(t *testing.T) {
	addr, l := pipeServer(t, Script{Seed: 1, Rules: []Rule{
		{Conn: 0, Action: Reject},
	}})
	// First connection is rejected: reads fail fast.
	c := dial(t, addr)
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	c.Write([]byte("x"))
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Fatal("rejected connection must not serve")
	}
	// Second connection passes.
	c2 := dial(t, addr)
	c2.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c2.Write([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 2)
	if _, err := io.ReadFull(c2, got); err != nil {
		t.Fatalf("second connection must echo: %v", err)
	}
	if l.numAccepted() != 2 {
		t.Fatalf("accepted = %d, want 2", l.numAccepted())
	}
}

func TestBlackholeBlocksUntilClose(t *testing.T) {
	addr, _ := pipeServer(t, Script{Seed: 1, Rules: []Rule{
		{Conn: 0, Op: OnRead, Call: 0, Action: Blackhole},
	}})
	c := dial(t, addr)
	c.Write([]byte("into the void"))
	c.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
	start := time.Now()
	_, err := c.Read(make([]byte, 8))
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("black-holed peer must time the client out, got %v", err)
	}
	if time.Since(start) < 100*time.Millisecond {
		t.Fatalf("client returned before its deadline: %v", time.Since(start))
	}
}

func TestCorruptIsDeterministic(t *testing.T) {
	// The same seed must corrupt the same byte positions on both runs.
	run := func(seed int64) []byte {
		addr, _ := pipeServer(t, Script{Seed: seed, Rules: []Rule{
			{Conn: 0, Op: OnWrite, Call: 0, Action: Corrupt, Bytes: 3},
		}})
		c := dial(t, addr)
		msg := bytes.Repeat([]byte{0x00}, 32)
		if _, err := c.Write(msg); err != nil {
			t.Fatal(err)
		}
		c.SetReadDeadline(time.Now().Add(2 * time.Second))
		got := make([]byte, 32)
		if _, err := io.ReadFull(c, got); err != nil {
			t.Fatal(err)
		}
		return got
	}
	a, b := run(7), run(7)
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed produced different corruption:\n%x\n%x", a, b)
	}
	flipped := 0
	for _, x := range a {
		if x != 0 {
			flipped++
		}
	}
	if flipped != 3 {
		t.Fatalf("flipped %d bytes, want 3", flipped)
	}
	if c := run(8); bytes.Equal(a, c) {
		t.Fatal("different seeds should corrupt different positions")
	}
}

func TestDelayOnWrite(t *testing.T) {
	addr, _ := pipeServer(t, Script{Seed: 1, Rules: []Rule{
		{Conn: 0, Op: OnWrite, Call: 0, Action: Delay, Duration: 120 * time.Millisecond},
	}})
	c := dial(t, addr)
	c.Write([]byte("slow"))
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	start := time.Now()
	got := make([]byte, 4)
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 100*time.Millisecond {
		t.Fatalf("echo arrived in %v, want >= 100ms injected delay", d)
	}
}
