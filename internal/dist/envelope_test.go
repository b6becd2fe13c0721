package dist

import (
	"context"
	"testing"

	"paw/internal/descriptor"
	"paw/internal/geom"
	"paw/internal/layout"
	"paw/internal/sqlrew"
	"paw/internal/workload"
)

// The data envelopes blockstore.Materialize installs (§V-A on the real path)
// let the master drop a partition before the hop. These tests hold them to
// the one thing they may never do: change an answer.

// envelopeWorkload is 250 δ-perturbed copies of the workload startCluster's
// layout was built for plus 250 uniform random ranges.
func envelopeWorkload(tc *testCluster) []geom.Box {
	dom := tc.data.Domain()
	hist := workload.Uniform(dom, workload.Defaults(25, 2))
	boxes := workload.Future(hist, 0.01*(dom.Hi[0]-dom.Lo[0]), 10, 31).Boxes()
	return append(boxes, workload.Uniform(dom, workload.Defaults(250, 32)).Boxes()...)
}

type envelopeAnswer struct {
	rows, parts int
	bytes       int64
}

// answers serves every box through Master.Query and checks the row counts
// against the dataset.
func (tc *testCluster) answers(t *testing.T, boxes []geom.Box) []envelopeAnswer {
	t.Helper()
	out := make([]envelopeAnswer, len(boxes))
	for i, b := range boxes {
		resp, err := tc.master.Query(sqlrew.BoxSQL(tc.data.Names(), b))
		if err != nil {
			t.Fatalf("%v: %v", b, err)
		}
		if want := tc.data.CountInBox(b, nil); resp.Rows != want || resp.Partial {
			t.Fatalf("%v: %d rows (partial %v), the dataset holds %d", b, resp.Rows, resp.Partial, want)
		}
		out[i] = envelopeAnswer{resp.Rows, resp.PartitionsScanned, resp.BytesScanned}
	}
	return out
}

// withoutEnvelopes runs f with the served layout's precise descriptors
// removed, then puts them back.
func (tc *testCluster) withoutEnvelopes(f func()) {
	l := tc.master.Router().Layout()
	saved := make([][]geom.Box, len(l.Parts))
	for i, p := range l.Parts {
		saved[i] = p.Precise
	}
	descriptor.Uninstall(l)
	tc.master.InvalidateCaches()
	f()
	for i, p := range l.Parts {
		p.Precise = saved[i]
	}
	tc.master.InvalidateCaches()
}

// checkEnvelopesChangeNoAnswer: the same rows and the same bytes read with
// the envelopes and without — a dropped partition is one whose every row
// group the worker skipped — and strictly fewer partitions visited, or the
// comparison says nothing.
func (tc *testCluster) checkEnvelopesChangeNoAnswer(t *testing.T, when string, boxes []geom.Box) {
	t.Helper()
	with := tc.answers(t, boxes)
	var without []envelopeAnswer
	tc.withoutEnvelopes(func() { without = tc.answers(t, boxes) })
	fewer := 0
	for i := range boxes {
		if with[i].rows != without[i].rows || with[i].bytes != without[i].bytes {
			t.Fatalf("%s, %v: %d rows / %d bytes with envelopes, %d / %d without",
				when, boxes[i], with[i].rows, with[i].bytes, without[i].rows, without[i].bytes)
		}
		if with[i].parts > without[i].parts {
			t.Fatalf("%s, %v: %d partitions with envelopes, %d without", when, boxes[i], with[i].parts, without[i].parts)
		}
		if with[i].parts < without[i].parts {
			fewer++
		}
	}
	if fewer == 0 {
		t.Fatalf("%s: no statement of %d lost a partition to an envelope", when, len(boxes))
	}
}

// identityMigration keeps every partition where it is under the next epoch,
// reusing the master's router as the benchmark's migrations do.
func identityMigration(m *Master) *Migration {
	mig := &Migration{
		Epoch:    m.Epoch() + 1,
		Router:   m.Router(),
		Replicas: m.Placement(),
		Renamed:  make(map[layout.ID]layout.ID),
	}
	for _, p := range m.Router().Layout().Parts {
		mig.Renamed[p.ID] = p.ID
		mig.Entries = append(mig.Entries, MigrationEntry{
			ID: p.ID, Workers: mig.Replicas[p.ID], ReuseID: p.ID, Rows: p.FullRows,
		})
	}
	return mig
}

func TestEnvelopesNeverChangeAnAnswer(t *testing.T) {
	tc := startCluster(t, 3, DefaultConfig(), nil)
	boxes := envelopeWorkload(tc)
	tc.checkEnvelopesChangeNoAnswer(t, "at boot", boxes)
	if err := tc.master.ApplyMigration(context.Background(), identityMigration(tc.master)); err != nil {
		t.Fatal(err)
	}
	for _, p := range tc.master.Router().Layout().Parts {
		if (p.FullRows > 0) != (len(p.Precise) == 1) {
			t.Fatalf("after the cutover partition %d holds %d rows and %d boxes", p.ID, p.FullRows, len(p.Precise))
		}
	}
	tc.checkEnvelopesChangeNoAnswer(t, "after an identity cutover", boxes)
}

// TestStatementRoutedNowhereIsAnsweredByTheMaster: a range that meets
// partition regions but none of their envelopes costs no RPC. Its answer is a
// complete one — zero rows, not Partial — no worker hears of it, and it is
// cached like any other clean result.
func TestStatementRoutedNowhereIsAnsweredByTheMaster(t *testing.T) {
	tc := startCluster(t, 3, DefaultConfig(), nil)
	l := tc.master.Router().Layout()
	var nowhere geom.Box
	found := false
	for _, b := range envelopeWorkload(tc) {
		if len(l.PartitionsFor(b)) > 0 {
			continue
		}
		var regions int
		tc.withoutEnvelopes(func() { regions = len(l.PartitionsFor(b)) })
		if regions > 0 {
			nowhere, found = b, true
			break
		}
	}
	if !found {
		t.Fatal("no statement of the workload is routed to zero partitions by the envelopes alone")
	}
	sql := sqlrew.BoxSQL(tc.data.Names(), nowhere)
	scans := func() (n int64) {
		for _, reg := range tc.workerRegs {
			n += reg.Snapshot().Counter(MetricWorkerScans)
		}
		return n
	}
	scansBefore := scans()
	for round := 0; round < 2; round++ {
		resp, err := tc.client.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Rows != 0 || resp.Partial || resp.PartitionsScanned != 0 || len(resp.FailedPartitions) != 0 {
			t.Fatalf("round %d: %+v, want an empty complete answer", round, resp)
		}
	}
	if got := scans(); got != scansBefore {
		t.Errorf("workers served %d scan requests for a statement routed nowhere", got-scansBefore)
	}
	if hits := tc.reg.Snapshot().Counter(MetricResultCacheHits); hits != 1 {
		t.Errorf("result cache hits = %d, want 1: the repeat must come from the cache", hits)
	}
	if want := tc.data.CountInBox(nowhere, nil); want != 0 {
		t.Fatalf("the dataset holds %d rows in %v", want, nowhere)
	}
}
