package shard

import (
	"testing"
	"time"

	"anondyn"
	"anondyn/examples/specs"
	"anondyn/internal/spec"
	"anondyn/internal/transport"
)

// stormReference runs the committed storm spec locally and returns the
// spec bytes, the parsed sweep, the rows and the rendered verdicts —
// the reference every distributed storm run must match byte for byte.
func stormReference(t *testing.T, seeds int) (data []byte, sw *spec.Sweep, rows []anondyn.CellResult) {
	t.Helper()
	data, err := specs.Read("stress/correlated-group-outage.yaml")
	if err != nil {
		t.Fatal(err)
	}
	sw, grid, err := spec.Compile(data, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if rows, err = grid.Run(anondyn.BatchOptions{Workers: 3}); err != nil {
		t.Fatal(err)
	}
	return data, sw, rows
}

// TestStormDoubleRunIdentical: two same-seed local runs of the
// committed storm spec agree byte for byte — rows and verdicts.
func TestStormDoubleRunIdentical(t *testing.T) {
	_, swA, rowsA := stormReference(t, 0)
	_, swB, rowsB := stormReference(t, 0)
	assertParity(t, rowsA, rowsB)
	vA, vB := swA.Verdicts(rowsA), swB.Verdicts(rowsB)
	if len(vA) == 0 {
		t.Fatal("storm spec evaluated no verdicts")
	}
	for i := range vA {
		if vA[i] != vB[i] {
			t.Errorf("verdict %d differs across same-seed runs: %+v vs %+v", i, vA[i], vB[i])
		}
	}
	for _, v := range vA {
		if !v.Pass {
			t.Errorf("survivable committed spec failed %s (%s)", v.Assertion, v.Detail)
		}
	}
}

// TestStormShardedParity: the storm spec sharded over joined workers
// merges to rows byte-identical to the local run, and the client-side
// verdicts match because they derive from (spec, rows) alone.
func TestStormShardedParity(t *testing.T) {
	data, swLocal, local := stormReference(t, 6)
	cp := startPlane(t, PlaneOptions{})
	joinWorker(t, cp.Addr(), WorkerOptions{}, nil)
	joinWorker(t, cp.Addr(), WorkerOptions{}, nil)

	h, err := cp.Submit(data, SubmitOptions{SeedsPerCell: 6, Shards: 4, Name: "storm-parity"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	assertParity(t, res.Rows, local)
	vLocal, vDist := swLocal.Verdicts(local), res.Sweep.Verdicts(res.Rows)
	if len(vDist) != len(vLocal) {
		t.Fatalf("distributed run evaluated %d verdicts, local %d", len(vDist), len(vLocal))
	}
	for i := range vDist {
		if vDist[i] != vLocal[i] {
			t.Errorf("verdict %d differs from local: %+v vs %+v", i, vDist[i], vLocal[i])
		}
	}
}

// TestStormWorkerKilledMidSweep: a worker dying mid-record-stream
// during a storm sweep requeues its shard — never a silent drop — and
// the finished rows still match the local reference byte for byte.
func TestStormWorkerKilledMidSweep(t *testing.T) {
	data, _, local := stormReference(t, 6)
	res := dialInKill(t, data, 6)
	if res.Requeues < 1 {
		t.Errorf("requeues = %d, want ≥ 1 after mid-storm kill", res.Requeues)
	}
	assertParity(t, res.Rows, local)
}

// TestPlaneStatusQuery: the -status frame pair reports the census and
// the queue — a sweep submitted to a workerless plane shows up queued,
// and after workers join and finish it the queue drains.
func TestPlaneStatusQuery(t *testing.T) {
	data, _, _ := stormReference(t, 2)
	cp := startPlane(t, PlaneOptions{Token: "s3cret"})

	h, err := cp.Submit(data, SubmitOptions{SeedsPerCell: 2, Shards: 2, Name: "storm-status"})
	if err != nil {
		t.Fatal(err)
	}

	st, err := transport.QueryPlaneStatus(cp.Addr(), "s3cret", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.Workers != 0 || len(st.Sweeps) != 1 {
		t.Fatalf("status = %+v, want 0 workers and 1 sweep", st)
	}
	info := st.Sweeps[0]
	if info.ID != h.ID() || info.Name != "storm-status" || info.State != transport.SweepQueued {
		t.Errorf("queued sweep info = %+v", info)
	}
	if info.Total != h.Total() || info.Done != 0 {
		t.Errorf("queued sweep progress = %d/%d, want 0/%d", info.Done, info.Total, h.Total())
	}

	if _, err := transport.QueryPlaneStatus(cp.Addr(), "wrong", 5*time.Second); err == nil {
		t.Error("status query with a bad token succeeded")
	}

	joinWorker(t, cp.Addr(), WorkerOptions{Token: "s3cret"}, nil)
	if _, err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	st, err = transport.QueryPlaneStatus(cp.Addr(), "s3cret", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Sweeps) != 0 {
		t.Errorf("finished sweep still listed: %+v", st.Sweeps)
	}
	if st.Workers != 1 {
		t.Errorf("census = %d workers, want 1", st.Workers)
	}
}
