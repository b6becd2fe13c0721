package serve

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
)

// Handler executes one request frame and returns the response message. It
// is called from per-request goroutines, so implementations must be safe
// for concurrent use. The payload is only valid for the duration of the
// call. A non-nil error is session-fatal: no response can be produced and
// the connection is dropped (per-request failures travel inside the
// response message instead).
type Handler func(typ byte, payload []byte) (respTyp byte, resp Marshaler, err error)

// ServeConn runs one binary-protocol session on c: it verifies the Magic
// preamble (a peer that opens with anything else is refused with ErrCorrupt
// before any frame is read), then reads frames, dispatches each request to h
// on its own goroutine — at most maxInflight concurrently — and writes the
// responses back tagged with the request's sequence number, in completion
// order rather than arrival order. That is what lets a session pipeline: a
// cheap request is never stuck behind an expensive one.
//
// ServeConn returns when the connection dies or a handler reports a fatal
// error (io.EOF: the peer hung up between frames); it drains its request
// goroutines before returning. The caller still owns c and closes it.
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
	sem := make(chan struct{}, maxInflight)
	var hdr [headerLen]byte
	for {
		buf := pool.Get().([]byte)
		typ, seq, payload, err := ReadFrame(r, &hdr, buf)
		if err != nil {
			wg.Wait()
			emu.Lock()
			defer emu.Unlock()
			if ferr != nil {
				return ferr
			}
			return err
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(typ byte, seq uint64, payload []byte) {
			defer func() {
				pool.Put(payload[:0])
				<-sem
				wg.Done()
			}()
			respTyp, resp, herr := h(typ, payload)
			if herr != nil {
				fatal(fmt.Errorf("serve: handler for frame type %d: %w", typ, herr))
				return
			}
			wmu.Lock()
			pbuf = resp.AppendWire(pbuf[:0])
			wbuf = AppendFrame(wbuf[:0], respTyp, seq, pbuf)
			_, werr := c.Write(wbuf)
			wmu.Unlock()
			if werr != nil {
				fatal(werr)
			}
		}(typ, seq, payload)
	}
}
