package drift

import (
	"context"
	"math/rand"
	"testing"

	"paw/internal/sqlrew"
)

// FuzzDriftDifferential fuzzes the live query stream the drift controller
// watches: a seeded mix of in-scope and drifted queries, with the controller
// evaluated every few queries. Whatever the monitor decides — no trigger,
// trigger-and-skip, or a full migration — every served query must return
// exactly the rows the static dataset oracle counts, including queries served
// while a migration is double-routing. This is the satellite differential for
// the tentpole: the fuzz explores workload mixes the deterministic E2E test
// does not.
func FuzzDriftDifferential(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(24))
	f.Add(int64(2), uint8(255), uint8(48))
	f.Add(int64(3), uint8(128), uint8(40))
	f.Add(int64(42), uint8(200), uint8(64))

	f.Fuzz(func(t *testing.T, seed int64, mix uint8, n uint8) {
		if n == 0 {
			t.Skip("empty stream")
		}
		cfg := Config{
			Window:       16,
			CheckEvery:   8,
			Delta:        0.02,
			CostFactor:   1.2,
			MinGain:      0.05,
			BuildMinRows: 8,
			BuildSample:  400,
			Seed:         seed,
		}
		tc := startDriftCluster(t, 3000, 2, cfg)
		names := tc.data.Names()

		rng := rand.New(rand.NewSource(seed))
		drifted := rightBoxes(32, seed+1)
		migrated := false
		for i := 0; i < int(n); i++ {
			var sql string
			if rng.Float64()*255 < float64(mix) {
				sql = sqlrew.BoxSQL(names, drifted[rng.Intn(len(drifted))])
			} else {
				q := tc.hist[rng.Intn(len(tc.hist))]
				sql = sqlrew.BoxSQL(names, q.Box)
			}
			tc.serve(t, sql)
			if (i+1)%cfg.CheckEvery == 0 {
				rep, err := tc.ctl.TriggerNow(context.Background())
				if err != nil {
					t.Fatalf("trigger after %d queries: %v (report %+v)", i+1, err, rep)
				}
				if rep.Migrated {
					migrated = true
				}
			}
		}
		// After any number of migrations the whole stream must still answer
		// exactly — replay both workload flavors.
		for i := 0; i < 8; i++ {
			tc.serve(t, sqlrew.BoxSQL(names, tc.hist[i%len(tc.hist)].Box))
			tc.serve(t, sqlrew.BoxSQL(names, drifted[i%len(drifted)]))
		}
		if migrated && tc.master.Epoch() == 0 {
			t.Fatal("controller reports a migration but the master still serves epoch 0")
		}
	})
}
