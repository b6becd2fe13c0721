package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
)

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4): counters and gauges as single samples, histograms
// as cumulative _bucket series plus _sum and _count. Instruments appear in
// registration order; a literal label block in an instrument name (see
// Label) is passed through verbatim.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	entries := append([]entry(nil), r.entries...)
	r.mu.Unlock()
	typed := map[string]bool{} // base names already TYPE-declared
	emitType := func(base, kind string) {
		if !typed[base] {
			typed[base] = true
			fmt.Fprintf(w, "# TYPE %s %s\n", base, kind)
		}
	}
	var err error
	track := func(e error) {
		if err == nil && e != nil {
			err = e
		}
	}
	for _, e := range entries {
		base, labels := splitLabels(e.name)
		switch e.kind {
		case kindCounter:
			emitType(base, "counter")
			_, werr := fmt.Fprintf(w, "%s%s %d\n", base, labels, e.c.Value())
			track(werr)
		case kindGauge:
			emitType(base, "gauge")
			_, werr := fmt.Fprintf(w, "%s%s %d\n", base, labels, e.g.Value())
			track(werr)
		case kindHistogram:
			emitType(base, "histogram")
			bounds := e.h.Bounds()
			counts := e.h.BucketCounts()
			var cum int64
			for i, b := range bounds {
				cum += counts[i]
				_, werr := fmt.Fprintf(w, "%s_bucket%s %d\n", base,
					mergeLabel(labels, "le", formatBound(b)), cum)
				track(werr)
			}
			cum += counts[len(counts)-1]
			_, werr := fmt.Fprintf(w, "%s_bucket%s %d\n", base, mergeLabel(labels, "le", "+Inf"), cum)
			track(werr)
			_, werr = fmt.Fprintf(w, "%s_sum%s %g\n", base, labels, e.h.Sum())
			track(werr)
			_, werr = fmt.Fprintf(w, "%s_count%s %d\n", base, labels, cum)
			track(werr)
		}
	}
	return err
}

// splitLabels separates a name like `foo_total{worker="2"}` into the base
// name and its literal label block (empty when unlabelled).
func splitLabels(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// mergeLabel adds one key="value" pair into an existing (possibly empty)
// label block.
func mergeLabel(labels, key, value string) string {
	pair := key + `="` + value + `"`
	if labels == "" {
		return "{" + pair + "}"
	}
	return labels[:len(labels)-1] + "," + pair + "}"
}

// formatBound renders a histogram bound the way Prometheus clients expect.
func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// Handler serves the registry over HTTP: Prometheus text by default, JSON
// snapshot with ?format=json (or an Accept: application/json header). A nil
// registry serves empty documents.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		wantJSON := req.URL.Query().Get("format") == "json" ||
			strings.Contains(req.Header.Get("Accept"), "application/json")
		if wantJSON {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(sortedSnapshot(r.Snapshot()))
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// sortedSnapshot re-marshals a snapshot through ordered maps so the JSON
// document is deterministic (encoding/json already sorts map keys; this
// exists so the contract is explicit and future-proof).
func sortedSnapshot(s Snapshot) Snapshot {
	// encoding/json sorts map keys; nothing further needed today.
	return s
}

// Server is a running metrics/debug HTTP server (see Serve).
type Server struct {
	listener net.Listener
	srv      *http.Server
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.listener.Addr().String() }

// Close shuts the server down.
func (s *Server) Close() error { return s.srv.Close() }

// ServeWith starts the opt-in introspection endpoint on addr: /metrics (and
// /) exposes the registry in Prometheus text or JSON, /debug/pprof/* serves
// the standard Go profiles, and extra mounts more handlers on the same
// listener — the nodes' /traces, /healthz and /readyz surfaces ride the
// metrics server rather than their own port; their patterns must not collide
// with /metrics, / or /debug/pprof/ (http.ServeMux panics on duplicates, by
// design). It returns immediately; the server runs until Close. Used by
// pawmaster/pawworker's -metrics flag.
func ServeWith(addr string, r *Registry, extra map[string]http.Handler) (*Server, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	h := Handler(r)
	mux.Handle("/metrics", h)
	mux.Handle("/", h)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for pattern, handler := range extra {
		mux.Handle(pattern, handler)
	}
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(l) }()
	return &Server{listener: l, srv: srv}, nil
}

// Healthz is the liveness handler: a flat 200 while the process serves HTTP
// at all. Readiness is the interesting signal; see Readyz.
func Healthz() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
}

// Readyz adapts a readiness check into a handler: 200 "ok" when check
// reports ready, 503 with the reason otherwise. Load balancers and the
// distributed example gate traffic on it (a master mid-cutover or a worker
// that has not installed its placement is alive but not ready).
func Readyz(check func() (ready bool, reason string)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		ready, reason := check()
		if !ready {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, reason)
			return
		}
		fmt.Fprintln(w, "ok")
	})
}
