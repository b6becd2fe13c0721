package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// manifest is BENCHMARK.json as the A/A check and the smoke test read it.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readManifest(path string) (manifest, error) {
	var mf manifest
	raw, err := os.ReadFile(path)
	if err != nil {
		return mf, err
	}
	return mf, json.Unmarshal(raw, &mf)
}

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is what the
// driver uses.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		j := int(math.Floor(pos))
		j = min(max(j, 1), len(s)-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

// selfCheck is the A/A check: this same binary, every workload, n seeds, in
// two interleaved sets. It prints each end-to-end metric's median, quartiles
// and spread (IQR / median, the driver's noise measure) per set, and fails
// when the two sets' medians differ by more than the metric's bound, when a
// spread exceeds the bound, when scan_bytes_per_query (a count taken with one
// client) differs at all for a seed, or when any operation failed.
func selfCheck(n int, seconds float64) int {
	mf, err := readManifest("BENCHMARK.json")
	if err != nil {
		logf("selfcheck: run from the repository root: %v", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		logf("selfcheck: %v", err)
		return 2
	}
	if n < 2 {
		n = 2 // quartiles need two values
	}
	bad := 0
	for _, w := range mf.Workloads {
		// values[set][metric] = one value per seed.
		values := [2]map[string][]float64{{}, {}}
		for i := 0; i < n; i++ {
			for set := 0; set < 2; set++ {
				cmd := exec.Command(self, "--workload", w.Name, "--seed", strconv.Itoa(i+1),
					"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
				var stderr bytes.Buffer
				cmd.Stderr = &stderr
				out, err := cmd.Output()
				if err != nil {
					tail := bytes.Split(bytes.TrimSpace(stderr.Bytes()), []byte("\n"))
					tail = tail[max(0, len(tail)-10):]
					logf("selfcheck: %s seed %d: %v\n%s", w.Name, i+1, err, bytes.Join(tail, []byte("\n")))
					return 1
				}
				lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
				var res result
				if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
					logf("selfcheck: %s seed %d: %v", w.Name, i+1, err)
					return 1
				}
				if res.Failed > 0 || !res.Correct {
					fmt.Printf("%s seed %d set %c: %d of %d operations failed\n", w.Name, i+1, 'A'+set, res.Failed, res.Attempted)
					bad++
				}
				for name, m := range res.Metrics {
					values[set][name] = append(values[set][name], m.Value)
				}
			}
		}
		fmt.Printf("%s (n=%d per set)\n", w.Name, n)
		for _, m := range mf.EndToEnd {
			var med [2]float64
			for set := 0; set < 2; set++ {
				q1, q2, q3 := quartiles(values[set][m.Name])
				med[set] = q2
				spread := (q3 - q1) / q2
				verdict := ""
				if m.Name != "setup_s" && spread > m.Bound {
					verdict = "  SPREAD OVER BOUND"
					bad++
				}
				fmt.Printf("  %-22s set %c  median %-12.6g q1 %-12.6g q3 %-12.6g spread %6.2f%%%s\n",
					m.Name, 'A'+set, q2, q1, q3, 100*spread, verdict)
			}
			worse := (med[1] - med[0]) / med[0]
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > m.Bound {
				verdict = "SETS DISAGREE"
				bad++
			}
			fmt.Printf("  %-22s B vs A %+6.2f%% worse, bound %.0f%%: %s\n", m.Name, 100*worse, 100*m.Bound, verdict)
		}
		a, b := values[0]["scan_bytes_per_query"], values[1]["scan_bytes_per_query"]
		for i := range a {
			if a[i] != b[i] {
				fmt.Printf("  scan_bytes_per_query differs for seed %d: %v vs %v\n", i+1, a[i], b[i])
				bad++
			}
		}
	}
	if bad > 0 {
		fmt.Printf("selfcheck: %d problem(s)\n", bad)
		return 1
	}
	fmt.Println("selfcheck: the two sets agree within every bound")
	return 0
}
