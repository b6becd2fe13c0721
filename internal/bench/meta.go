package bench

import "runtime"

// Schema identifiers for the machine-readable benchmark artifacts. Bump the
// trailing version when a report's shape changes incompatibly so downstream
// tooling (CI trend charts, pawcli stats) can dispatch on it.
const (
	ConstructionSchema = "paw/bench-construction/v1"
	RoutingSchema      = "paw/bench-routing/v1"
	ScanSchema         = "paw/bench-scan/v1"
	DriftSchema        = "paw/bench-drift/v1"
	RebalanceSchema    = "paw/bench-rebalance/v1"
)

// Host identifies the machine and toolchain a benchmark artifact was
// measured on — numbers from hosts with different core counts or Go
// versions are not comparable, so every BENCH_*.json carries this block.
type Host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// CurrentHost snapshots the running process's host metadata. Called by
// cmd/pawbench when stamping a report; the bench functions themselves never
// read ambient state.
func CurrentHost() Host {
	return Host{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// Meta identifies one benchmark artifact: which schema it follows, which
// build of the code produced it, when, and on what host. BuildInfo,
// GeneratedAt and Host are supplied by the caller (cmd/pawbench stamps them
// from the VCS build info, the wall clock and the runtime) — this package
// never reads ambient state, so library callers and tests stay
// deterministic.
type Meta struct {
	Schema      string `json:"schema"`
	BuildInfo   string `json:"build_info,omitempty"`
	GeneratedAt string `json:"generated_at,omitempty"`
	Host        Host   `json:"host"`
}
