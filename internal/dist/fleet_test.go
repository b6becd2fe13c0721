package dist

import (
	"net"
	"runtime"
	"testing"

	"paw/internal/blockstore"
	"paw/internal/core"
	"paw/internal/dataset"
	"paw/internal/placement"
	"paw/internal/workload"
)

// TestStartFleetFailsClean: a placement that names a slot past the fleet, or
// a hook that closes its listener, fails StartFleet with no worker it started
// left serving and no goroutine behind.
func TestStartFleetFailsClean(t *testing.T) {
	data := dataset.Uniform(2000, 2, 9)
	rows := make([]int, data.NumRows())
	for i := range rows {
		rows[i] = i
	}
	l := core.Build(data, rows, data.Domain(), workload.Uniform(data.Domain(), workload.Defaults(10, 11)), core.Params{MinRows: 100})
	store := blockstore.Materialize(l, data, blockstore.Config{})
	base := runtime.NumGoroutine()
	var started []*Worker
	for _, tt := range []struct {
		name  string
		slots int
		close int // the worker whose hook closes its listener, or -1
	}{
		{"slot past the fleet", 2, -1},
		{"closed listener", 3, 1},
	} {
		f, err := StartFleet(l, data.Names(), store, placement.RoundRobin(l, 3).Replicated(), tt.slots, func(w int, wk *Worker, ln net.Listener) net.Listener {
			started = append(started, wk)
			if w == tt.close {
				ln.Close()
			}
			return ln
		})
		if err == nil {
			f.Close()
			t.Fatalf("%s: StartFleet succeeded", tt.name)
		}
	}
	if len(started) != 4 {
		t.Fatalf("%d workers reached the hook, want 4", len(started))
	}
	for i, wk := range started {
		if ok, _ := wk.Ready(); ok {
			t.Errorf("worker %d is still serving", i)
		}
	}
	checkNoLeak(t, base)
}
