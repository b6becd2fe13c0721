package dist

import (
	"net"
	"time"

	"paw/internal/blockstore"
	"paw/internal/layout"
	"paw/internal/membership"
	"paw/internal/obs"
	"paw/internal/placement"
	"paw/internal/router"
)

// Fleet is an in-process cluster on loopback TCP: one Worker per slot of a
// placement, each with its own metrics registry, and a Master over them that
// has not started serving clients.
type Fleet struct {
	Master  *Master
	Workers []*Worker
	Regs    []*obs.Registry // Regs[w] is worker w's, attached before it served
	Addrs   []string
}

// StartFleet serves store on slots workers, worker w hosting the partitions
// rep places on it, behind an unstarted Master that routes l over the columns
// names with placement rep. prep, when not nil, runs on each worker before it
// serves and returns the listener it serves on: it may wrap ln (faultnet) or
// set test-only worker fields. On an error nothing it started is left serving.
func StartFleet(l *layout.Layout, names []string, store *blockstore.Store, rep placement.Replicated, slots int,
	prep func(w int, wk *Worker, ln net.Listener) net.Listener) (*Fleet, error) {
	rm, err := router.NewMaster(l, names)
	if err != nil {
		return nil, err
	}
	f := &Fleet{}
	for w := 0; w < slots; w++ {
		wk := NewWorker(store, membership.HostedIDs(rep, w))
		f.Workers, f.Regs = append(f.Workers, wk), append(f.Regs, obs.New())
		wk.SetMetrics(f.Regs[w])
		inner, err := net.ListenTCP("tcp", &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			f.Close()
			return nil, err
		}
		f.Addrs = append(f.Addrs, inner.Addr().String())
		var ln net.Listener = inner
		if prep != nil {
			ln = prep(w, wk, inner)
		}
		// Setting no deadline fails only on a closed listener, which the
		// worker would serve by accepting nothing.
		if err = inner.SetDeadline(time.Time{}); err == nil {
			err = wk.Serve(ln)
		}
		if err != nil {
			ln.Close()
			f.Close()
			return nil, err
		}
	}
	if f.Master, err = NewMasterReplicated(rm, f.Addrs, rep); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// Close stops the master, then every worker. It is idempotent.
func (f *Fleet) Close() {
	if f.Master != nil {
		f.Master.Close()
	}
	for _, wk := range f.Workers {
		wk.Close()
	}
}
