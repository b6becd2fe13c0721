package dist

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// Lifecycle edge cases: Close is idempotent on both node types, a closed
// node cannot be restarted, and one client connection safely multiplexes
// concurrent queries.

func TestWorkerCloseIdempotent(t *testing.T) {
	tc := startChaosCluster(t, 1, 1, nil, fastChaosConfig())
	w := tc.workers[0]
	if err := w.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close must be a no-op, got %v", err)
	}
}

func TestWorkerStartAfterClose(t *testing.T) {
	tc := startChaosCluster(t, 1, 1, nil, fastChaosConfig())
	w := tc.workers[0]
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Start("127.0.0.1:0"); err == nil {
		t.Fatal("Start on a closed worker must error")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := w.Serve(l); err == nil {
		t.Fatal("Serve on a closed worker must error")
	}
}

func TestWorkerDoubleStart(t *testing.T) {
	tc := startChaosCluster(t, 1, 1, nil, fastChaosConfig())
	if _, err := tc.workers[0].Start("127.0.0.1:0"); err == nil {
		t.Fatal("second Start must error while the first listener serves")
	}
}

func TestMasterCloseIdempotent(t *testing.T) {
	tc := startChaosCluster(t, 1, 1, nil, fastChaosConfig())
	if _, err := tc.master.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := tc.master.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := tc.master.Close(); err != nil {
		t.Fatalf("second Close must be a no-op, got %v", err)
	}
}

func TestMasterStartAfterClose(t *testing.T) {
	tc := startChaosCluster(t, 1, 1, nil, fastChaosConfig())
	if err := tc.master.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.master.Start("127.0.0.1:0"); err == nil {
		t.Fatal("Start on a closed master must error")
	}
}

func TestMasterDoubleStart(t *testing.T) {
	tc := startChaosCluster(t, 1, 1, nil, fastChaosConfig())
	if _, err := tc.master.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.master.Start("127.0.0.1:0"); err == nil {
		t.Fatal("second Start must error while the first listener serves")
	}
}

// TestMasterCloseEndsSessions: Master.Close closes the sessions it serves,
// as Worker.Close does, so it returns at once with an idle client connection
// open and with a heartbeater beating on one.
func TestMasterCloseEndsSessions(t *testing.T) {
	for _, tt := range []struct {
		name string
		open func(t *testing.T, addr string) (close func())
	}{
		{"idle client", func(t *testing.T, addr string) func() {
			cl, err := DialMux(addr)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cl.Query(chaosSQL); err != nil {
				t.Fatal(err)
			}
			return func() { cl.Close() }
		}},
		{"beating heartbeater", func(t *testing.T, addr string) func() {
			hb := NewHeartbeater(addr)
			if _, err := hb.Join(context.Background(), -1, "127.0.0.1:1", nil); err != nil {
				t.Fatal(err)
			}
			hb.Start()
			return hb.Close
		}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			tc := startChaosCluster(t, 1, 1, nil, fastChaosConfig())
			if err := tc.master.EnableMembership(MembershipConfig{}); err != nil {
				t.Fatal(err)
			}
			addr, err := tc.master.Start("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer tt.open(t, addr)()
			closed := make(chan error, 1)
			go func() { closed <- tc.master.Close() }()
			select {
			case err := <-closed:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(time.Second):
				t.Fatalf("Master.Close still waiting after 1 s with %s open", tt.name)
			}
		})
	}
}

// TestClientConcurrentQueries hammers one client connection from many
// goroutines: the mux must match every pipelined response to its request by
// sequence so no goroutine sees another's answer (run under -race).
func TestClientConcurrentQueries(t *testing.T) {
	tc := startChaosCluster(t, 2, 1, nil, fastChaosConfig())
	maddr, err := tc.master.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	want, err := tc.master.Query(chaosSQL)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := DialMux(maddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				resp, err := cl.Query(chaosSQL)
				if err != nil {
					errs <- err
					return
				}
				if resp.Rows != want.Rows {
					errs <- fmt.Errorf("concurrent query returned %d rows, want %d", resp.Rows, want.Rows)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
