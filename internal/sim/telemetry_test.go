package sim

import (
	"testing"

	"paw/internal/obs"
)

// TestTelemetryPreservesDigests is the determinism contract for the
// observability layer: construction telemetry observes the build, it never
// feeds it. Every (scenario, method) pair must produce a byte-identical
// layout digest with a live registry attached and with telemetry disabled,
// at both serial and parallel construction.
func TestTelemetryPreservesDigests(t *testing.T) {
	for _, sc := range Scenarios(4, 991) {
		for _, method := range Methods() {
			sc, method := sc, method
			t.Run(sc.Name+"/"+method, func(t *testing.T) {
				t.Parallel()
				base, err := Build(sc, method, 1).Digest()
				if err != nil {
					t.Fatal(err)
				}
				for _, par := range []int{1, 4} {
					reg := obs.New()
					d, err := BuildObserved(sc, method, par, reg).Digest()
					if err != nil {
						t.Fatal(err)
					}
					if d != base {
						t.Errorf("digest with telemetry (parallelism=%d) = %s, want %s", par, d, base)
					}
					// The registry must actually have observed the build —
					// a silently detached instrument would make this test
					// vacuous.
					snap := reg.Snapshot()
					if len(snap.Counters) == 0 && len(snap.Histograms) == 0 {
						t.Error("telemetry registry recorded nothing during the build")
					}
				}
			})
		}
	}
}
