package serve

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
)

// Handler executes one request frame and returns the response message. It
// is called from several goroutines at once, so implementations must be safe
// for concurrent use. The payload is only valid for the duration of the
// call. A non-nil error is session-fatal: no response can be produced and
// the connection is dropped (per-request failures travel inside the
// response message instead).
type Handler func(typ byte, payload []byte) (respTyp byte, resp Marshaler, err error)

// ServeConn runs one binary-protocol session on c: it verifies the Magic
// preamble (a peer that opens with anything else is refused with ErrCorrupt
// before any frame is read), then reads frames, runs each request through h
// — at most maxInflight concurrently — and writes the responses back tagged
// with the request's sequence number, in completion order rather than arrival
// order. That is what lets a session pipeline: a cheap request is never stuck
// behind an expensive one.
//
// Requests run on handler goroutines that live as long as the session: a
// frame goes to a handler parked between requests if there is one, starts a
// new handler while fewer than maxInflight exist, and otherwise waits for the
// first to finish. A handler's stack, once grown into h, is reused by the
// requests that follow instead of being regrown from 2 KB for every frame.
//
// ServeConn returns when the connection dies or a handler reports a fatal
// error (io.EOF: the peer hung up between frames); every handler has exited
// by then. The caller still owns c and closes it.
func ServeConn(c net.Conn, maxInflight int, h Handler) error {
	if maxInflight < 1 {
		maxInflight = 1
	}
	r := bufio.NewReader(c)
	var preamble [len(Magic)]byte
	if _, err := io.ReadFull(r, preamble[:]); err != nil {
		return err
	}
	if preamble != Magic {
		return fmt.Errorf("%w: bad preamble %q", ErrCorrupt, preamble[:])
	}
	var (
		wmu  sync.Mutex
		wbuf []byte
		pbuf []byte
		wg   sync.WaitGroup
		pool = sync.Pool{New: func() any { return []byte(nil) }}

		emu  sync.Mutex
		ferr error // first fatal error (handler or response write)
	)
	fatal := func(err error) {
		emu.Lock()
		if ferr == nil {
			ferr = err
		}
		emu.Unlock()
		c.Close() // unblocks the read loop and any blocked writer
	}
	type job struct {
		typ     byte
		seq     uint64
		payload []byte
	}
	run := func(j job) {
		defer pool.Put(j.payload[:0])
		respTyp, resp, herr := h(j.typ, j.payload)
		if herr != nil {
			fatal(fmt.Errorf("serve: handler for frame type %d: %w", j.typ, herr))
			return
		}
		wmu.Lock()
		pbuf = resp.AppendWire(pbuf[:0])
		wbuf = AppendFrame(wbuf[:0], respTyp, j.seq, pbuf)
		_, werr := c.Write(wbuf)
		wmu.Unlock()
		if werr != nil {
			fatal(werr)
		}
	}
	jobs := make(chan job) // unbuffered: a send succeeds only into a parked handler
	handlers := 0
	var hdr [headerLen]byte
	for {
		buf := pool.Get().([]byte)
		typ, seq, payload, err := ReadFrame(r, &hdr, buf)
		if err != nil {
			close(jobs)
			wg.Wait()
			emu.Lock()
			defer emu.Unlock()
			if ferr != nil {
				return ferr
			}
			return err
		}
		j := job{typ, seq, payload}
		select {
		case jobs <- j: // a parked handler took it
		default:
			if handlers == maxInflight {
				jobs <- j // all busy: the first to finish takes it
				continue
			}
			handlers++
			wg.Add(1)
			go func(j job) {
				defer wg.Done()
				if testHookHandlerStart != nil {
					testHookHandlerStart()
				}
				for ok := true; ok; j, ok = <-jobs {
					run(j)
				}
			}(j)
		}
	}
}

// testHookHandlerStart, when a test sets it, is called by every handler
// goroutine ServeConn starts.
var testHookHandlerStart func()
