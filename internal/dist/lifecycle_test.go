package dist

import (
	"fmt"
	"net"
	"sync"
	"testing"
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
