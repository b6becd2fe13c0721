package layout

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"paw/internal/obs"
)

// Build metric names. The builders (internal/core, internal/qdtree,
// internal/kdtree) register these in the obs.Registry passed via their
// Params.Obs; BuildReport reads them back out of a Snapshot. They live here
// — the package every builder already imports — so the producer and the
// consumer cannot drift apart.
const (
	// Phase durations: latency histograms whose sum is the cumulative ns
	// across all workers.
	MetricConstructNs = "build_construct_ns"
	MetricSealNs      = "build_seal_ns"
	MetricMultiNs     = "build_multi_split_ns"
	MetricAxisNs      = "build_axis_split_ns"
	MetricRefineNs    = "build_refine_ns"

	// Split statistics (Alg. 1–3).
	MetricMultiTried        = "build_multi_split_tried_total"
	MetricMultiAccepted     = "build_multi_split_accepted_total"
	MetricAxisEvaluated     = "build_axis_candidates_evaluated_total"
	MetricAxisAccepted      = "build_axis_split_accepted_total"
	MetricExpansions        = "build_bmin_expansions_total"
	MetricExpansionFailures = "build_bmin_expansion_failures_total"

	// Ψ(α) policy decisions (Eq. 4): which split set a node was offered.
	MetricPolicyMultiAdmitted = "build_policy_multi_admitted_total"
	MetricPolicyAxisOnly      = "build_policy_axis_only_total"
	MetricPolicyTerminal      = "build_policy_terminal_total"

	// Recursion shape.
	MetricNodes       = "build_nodes_total"
	MetricRefineCalls = "build_refine_calls_total"
	MetricMaxDepth    = "build_max_depth"
)

// BuildReportSchema versions the report document; bump on breaking changes.
// v2: the search census counts every packed chunk (raw, FOR, dictionary).
// v3: the phase durations are telemetry histograms (count, sum, buckets); the
// snapshot has no timers.
const BuildReportSchema = "paw/build-report/v3"

// Phase is one top-level wall-clock phase of a build pipeline (generate,
// sample, construct, route, ...). Phases are sequential, so their sum
// approximates the wall time — `pawcli stats` reports the coverage.
type Phase struct {
	Name string `json:"name"`
	Ns   int64  `json:"ns"`
}

// LevelStat counts tree nodes and physical partitions per depth.
type LevelStat struct {
	Depth  int `json:"depth"`
	Nodes  int `json:"nodes"`
	Leaves int `json:"leaves"`
}

// SplitStats aggregates the construction decisions of Algorithms 1–3.
type SplitStats struct {
	MultiGroupTried    int64 `json:"multi_group_tried"`
	MultiGroupAccepted int64 `json:"multi_group_accepted"`
	AxisCandidates     int64 `json:"axis_candidates_evaluated"`
	AxisAccepted       int64 `json:"axis_accepted"`
	Expansions         int64 `json:"bmin_expansions"`
	ExpansionFailures  int64 `json:"bmin_expansion_failures"`
	PolicyMulti        int64 `json:"policy_multi_admitted"`
	PolicyAxisOnly     int64 `json:"policy_axis_only"`
	PolicyTerminal     int64 `json:"policy_terminal"`
	RefineCalls        int64 `json:"refine_calls"`
	NodesVisited       int64 `json:"nodes_visited"`
	MaxDepth           int64 `json:"max_depth"`
}

// CostStats is the final cost decomposition of the built layout against the
// workload it was built for (Eq. 1–2).
type CostStats struct {
	WorkloadQueries int     `json:"workload_queries"`
	WorkloadBytes   int64   `json:"workload_bytes"`
	AvgQueryBytes   float64 `json:"avg_query_bytes"`
	ScanRatio       float64 `json:"scan_ratio"`
}

// BuildReport is the structured build artifact emitted by `pawcli build`
// and pawbench: phase timings, split statistics, tree shape and the final
// cost decomposition, plus the raw telemetry snapshot for ad-hoc digging.
// `pawcli stats` renders it.
type BuildReport struct {
	Schema      string `json:"schema"`
	Method      string `json:"method"`
	BuildInfo   string `json:"build_info,omitempty"`
	GeneratedAt string `json:"generated_at,omitempty"`

	WallNs int64   `json:"wall_ns"`
	Phases []Phase `json:"phases"`

	Partitions          int   `json:"partitions"`
	IrregularPartitions int   `json:"irregular_partitions"`
	SampleRows          int   `json:"sample_rows,omitempty"`
	RowBytes            int64 `json:"row_bytes"`
	TotalBytes          int64 `json:"total_bytes"`
	Unrouted            int64 `json:"unrouted,omitempty"`
	// StoredBytes is the materialised store's encoded payload by physical
	// encoding ("raw", "dict", "rle", "for"): where the bytes a scan may have
	// to read are. Set by builds that materialise (`pawcli build`).
	StoredBytes map[string]int64 `json:"stored_bytes_by_encoding,omitempty"`
	// Search says how many of the packed chunks a scan searches rather than
	// sweeps. Set with StoredBytes.
	Search *SearchCensus `json:"searchable_chunks,omitempty"`

	Levels []LevelStat `json:"levels,omitempty"`
	Splits SplitStats  `json:"splits"`
	Cost   *CostStats  `json:"cost,omitempty"`

	Telemetry obs.Snapshot `json:"telemetry"`
}

// SearchCensus is the materialised store's raw column chunks, with the bits
// their values are packed at summed over them, and its packed chunks (raw,
// FOR and dictionary), of which the ones in ascending pieces — long enough to
// binary-search — are counted with the pieces and rows those hold and by
// column name: the tail columns of the store's row order (DESIGN.md §11).
type SearchCensus struct {
	RawChunks  int            `json:"raw_chunks"`
	RawBits    int            `json:"raw_bits"`
	Packed     int            `json:"packed_chunks"`
	Searchable int            `json:"searchable"`
	Pieces     int            `json:"pieces"`
	Rows       int            `json:"rows"`
	ByColumn   map[string]int `json:"by_column,omitempty"`
}

// NewBuildReport assembles a report from a sealed layout and a telemetry
// snapshot taken after the build. The caller fills the pipeline-level fields
// (Phases, WallNs, GeneratedAt, BuildInfo, SampleRows, Cost).
func NewBuildReport(l *Layout, snap obs.Snapshot) *BuildReport {
	r := &BuildReport{
		Schema:     BuildReportSchema,
		Method:     l.Method,
		Partitions: l.NumPartitions(),
		RowBytes:   l.RowBytes,
		TotalBytes: l.TotalBytes,
		Unrouted:   l.Unrouted,
		Telemetry:  snap,
		Splits: SplitStats{
			MultiGroupTried:    snap.Counter(MetricMultiTried),
			MultiGroupAccepted: snap.Counter(MetricMultiAccepted),
			AxisCandidates:     snap.Counter(MetricAxisEvaluated),
			AxisAccepted:       snap.Counter(MetricAxisAccepted),
			Expansions:         snap.Counter(MetricExpansions),
			ExpansionFailures:  snap.Counter(MetricExpansionFailures),
			PolicyMulti:        snap.Counter(MetricPolicyMultiAdmitted),
			PolicyAxisOnly:     snap.Counter(MetricPolicyAxisOnly),
			PolicyTerminal:     snap.Counter(MetricPolicyTerminal),
			RefineCalls:        snap.Counter(MetricRefineCalls),
			NodesVisited:       snap.Counter(MetricNodes),
			MaxDepth:           snap.Gauge(MetricMaxDepth),
		},
	}
	for _, p := range l.Parts {
		if p.Desc.Kind() == KindIrregular {
			r.IrregularPartitions++
		}
	}
	if l.Root != nil {
		var walk func(n *Node, depth int)
		walk = func(n *Node, depth int) {
			for len(r.Levels) <= depth {
				r.Levels = append(r.Levels, LevelStat{Depth: len(r.Levels)})
			}
			r.Levels[depth].Nodes++
			if n.IsLeaf() {
				r.Levels[depth].Leaves++
			}
			for _, c := range n.Children {
				walk(c, depth+1)
			}
		}
		walk(l.Root, 0)
	}
	return r
}

// PhaseCoverage returns Σ phase ns / wall ns — the fraction of the wall time
// the phases explain. The acceptance bar for `pawcli build` is ≥ 0.9.
func (r *BuildReport) PhaseCoverage() float64 {
	if r.WallNs <= 0 {
		return 0
	}
	var sum int64
	for _, p := range r.Phases {
		sum += p.Ns
	}
	return float64(sum) / float64(r.WallNs)
}

// WriteJSON writes the report as indented JSON.
func (r *BuildReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteJSONFile writes the report to path.
func (r *BuildReport) WriteJSONFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadBuildReport loads a report written by WriteJSON.
func ReadBuildReport(rd io.Reader) (*BuildReport, error) {
	var r BuildReport
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, err
	}
	if r.Schema != BuildReportSchema {
		return nil, fmt.Errorf("layout: unsupported build report schema %q (want %q)", r.Schema, BuildReportSchema)
	}
	return &r, nil
}

// Render writes the human-readable view `pawcli stats` prints.
func (r *BuildReport) Render(w io.Writer) {
	fmt.Fprintf(w, "build report (%s)\n", r.Schema)
	if r.BuildInfo != "" || r.GeneratedAt != "" {
		fmt.Fprintf(w, "  build: %s  at: %s\n", r.BuildInfo, r.GeneratedAt)
	}
	fmt.Fprintf(w, "  method: %s   partitions: %d (%d irregular)   sample rows: %d\n",
		r.Method, r.Partitions, r.IrregularPartitions, r.SampleRows)
	if r.TotalBytes > 0 {
		fmt.Fprintf(w, "  data: %d bytes (%d/row), %d unrouted\n", r.TotalBytes, r.RowBytes, r.Unrouted)
	}
	if len(r.StoredBytes) > 0 {
		var total int64
		encs := make([]string, 0, len(r.StoredBytes))
		for enc, b := range r.StoredBytes {
			encs = append(encs, enc)
			total += b
		}
		sort.Strings(encs)
		fmt.Fprintf(w, "  stored: %d bytes encoded —", total)
		for _, enc := range encs {
			fmt.Fprintf(w, " %s %d (%.1f%%", enc, r.StoredBytes[enc], 100*float64(r.StoredBytes[enc])/float64(total))
			if c := r.Search; enc == "raw" && c != nil && c.RawChunks > 0 {
				fmt.Fprintf(w, ", %.1f bits a value", float64(c.RawBits)/float64(c.RawChunks))
			}
			fmt.Fprint(w, ")")
		}
		fmt.Fprintln(w)
	}
	if c := r.Search; c != nil {
		fmt.Fprintf(w, "  searchable: %d of %d packed chunks", c.Searchable, c.Packed)
		if c.Pieces > 0 {
			fmt.Fprintf(w, ", ascending pieces of %.1f rows (mean) —", float64(c.Rows)/float64(c.Pieces))
			cols := make([]string, 0, len(c.ByColumn))
			for col := range c.ByColumn {
				cols = append(cols, col)
			}
			sort.Strings(cols)
			for _, col := range cols {
				fmt.Fprintf(w, " %s %.1f%%", col, 100*float64(c.ByColumn[col])/float64(c.Searchable))
			}
		}
		fmt.Fprintln(w)
	}

	if len(r.Phases) == 0 || r.WallNs <= 0 {
		// A build run with telemetry disabled records no phase timings;
		// "untraced" distinguishes that from a build whose phases measured 0.
		fmt.Fprintf(w, "\nphases: untraced (build ran with telemetry disabled)\n")
	} else {
		fmt.Fprintf(w, "\nphases (wall %v, coverage %.1f%%):\n",
			time.Duration(r.WallNs).Round(time.Microsecond), 100*r.PhaseCoverage())
		for _, p := range r.Phases {
			pct := 100 * float64(p.Ns) / float64(r.WallNs)
			fmt.Fprintf(w, "  %-12s %12v  %5.1f%%\n", p.Name, time.Duration(p.Ns).Round(time.Microsecond), pct)
		}
	}

	s := r.Splits
	fmt.Fprintf(w, "\nsplit statistics:\n")
	fmt.Fprintf(w, "  nodes visited: %d   max depth: %d\n", s.NodesVisited, s.MaxDepth)
	fmt.Fprintf(w, "  Ψ policy: %d multi-admitted, %d axis-only, %d terminal\n",
		s.PolicyMulti, s.PolicyAxisOnly, s.PolicyTerminal)
	fmt.Fprintf(w, "  multi-group (Alg. 1): %d tried, %d accepted; bmin expansions %d (%d failed)\n",
		s.MultiGroupTried, s.MultiGroupAccepted, s.Expansions, s.ExpansionFailures)
	fmt.Fprintf(w, "  axis-parallel (Alg. 2): %d candidates evaluated, %d accepted\n",
		s.AxisCandidates, s.AxisAccepted)
	if s.RefineCalls > 0 {
		fmt.Fprintf(w, "  data-aware refinement (§IV-E): %d leaves refined\n", s.RefineCalls)
	}

	if len(r.Levels) > 0 {
		fmt.Fprintf(w, "\npartitions per level:\n")
		for _, lv := range r.Levels {
			fmt.Fprintf(w, "  depth %2d: %5d nodes, %5d partitions\n", lv.Depth, lv.Nodes, lv.Leaves)
		}
	}

	if r.Cost != nil {
		c := r.Cost
		fmt.Fprintf(w, "\ncost decomposition (Eq. 1–2, %d queries):\n", c.WorkloadQueries)
		fmt.Fprintf(w, "  workload cost: %d bytes   avg/query: %.0f bytes   scan ratio: %.3f%%\n",
			c.WorkloadBytes, c.AvgQueryBytes, 100*c.ScanRatio)
	}

	if len(r.Telemetry.Histograms) > 0 {
		fmt.Fprintf(w, "\nbuilder timers (cumulative across workers):\n")
		names := make([]string, 0, len(r.Telemetry.Histograms))
		for n := range r.Telemetry.Histograms {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			h := r.Telemetry.Histograms[n]
			fmt.Fprintf(w, "  %-28s %6d calls  %12v\n", n, h.Count, time.Duration(h.Sum).Round(time.Microsecond))
		}
	}
}
