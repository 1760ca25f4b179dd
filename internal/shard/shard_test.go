package shard

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"anondyn/examples/specs"
	"anondyn/internal/metrics"
	"anondyn/internal/transport"
)

func TestPlanCoversRunSpace(t *testing.T) {
	cases := []struct{ cells, per, want int }{
		{1, 1, 1}, {1, 1, 8}, {4, 5, 1}, {4, 5, 2}, {4, 5, 4},
		{4, 5, 7}, {4, 5, 11}, {4, 5, 100}, {3, 1, 5}, {12, 200, 4},
		{5, 7, 6},
	}
	for _, tc := range cases {
		shards := Plan(tc.cells, tc.per, tc.want)
		total := tc.cells * tc.per
		if len(shards) == 0 {
			t.Fatalf("Plan(%d,%d,%d): empty plan", tc.cells, tc.per, tc.want)
		}
		wantLen := tc.want
		if wantLen < 1 {
			wantLen = 1
		}
		if wantLen > total {
			wantLen = total
		}
		if len(shards) != wantLen {
			t.Errorf("Plan(%d,%d,%d): %d shards, want %d", tc.cells, tc.per, tc.want, len(shards), wantLen)
		}
		next := 0
		for i, s := range shards {
			if s.Index != i {
				t.Errorf("Plan(%d,%d,%d): shard %d has Index %d", tc.cells, tc.per, tc.want, i, s.Index)
			}
			if s.Lo != next {
				t.Errorf("Plan(%d,%d,%d): shard %d starts at %d, want %d (gap or overlap)",
					tc.cells, tc.per, tc.want, i, s.Lo, next)
			}
			if s.Runs() < 1 {
				t.Errorf("Plan(%d,%d,%d): empty %v", tc.cells, tc.per, tc.want, s)
			}
			// The (cell range, seed range) reading must agree with the
			// run range.
			if s.CellHi-s.CellLo > 1 && (s.SeedLo != 0 || s.SeedHi != tc.per) {
				t.Errorf("Plan(%d,%d,%d): multi-cell %v covers partial seeds", tc.cells, tc.per, tc.want, s)
			}
			if lo := s.CellLo*tc.per + s.SeedLo; lo != s.Lo {
				t.Errorf("Plan(%d,%d,%d): %v cell/seed lo inconsistent", tc.cells, tc.per, tc.want, s)
			}
			if hi := (s.CellHi-1)*tc.per + s.SeedHi; hi != s.Hi {
				t.Errorf("Plan(%d,%d,%d): %v cell/seed hi inconsistent", tc.cells, tc.per, tc.want, s)
			}
			next = s.Hi
		}
		if next != total {
			t.Errorf("Plan(%d,%d,%d): covers %d runs, want %d", tc.cells, tc.per, tc.want, next, total)
		}
	}
}

// startWorkers starts n listening workers (pool size 2) and returns
// their addresses; the workers close with the test.
func startWorkers(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		w, err := NewWorker("127.0.0.1:0", WorkerOptions{Workers: 2, Log: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = w.Addr()
		done := make(chan struct{})
		go func() {
			defer close(done)
			if err := w.Serve(); err != nil {
				t.Errorf("worker serve: %v", err)
			}
		}()
		t.Cleanup(func() { w.Close(); <-done })
	}
	return addrs
}

// parityCase runs the committed spec over dial-out workers at addrs
// through a listener-less control plane and checks the merged rows
// against a local Grid.Run of the same spec and seeds.
func parityCase(t *testing.T, seeds, nShards int, addrs []string, opts PlaneOptions) *Result {
	t.Helper()
	data, grid, local := localReference(t, seeds)
	if opts.IOTimeout == 0 {
		opts.IOTimeout = 10 * time.Second
	}
	opts.Log = t.Logf
	cp, err := NewControlPlane(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	h, err := cp.Submit(data, SubmitOptions{SeedsPerCell: seeds, Shards: nShards, Name: "parity"})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range addrs {
		cp.AddWorker(a)
	}
	res, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Rows, local) {
		t.Errorf("distributed rows differ from local rows:\ndist  %+v\nlocal %+v", res.Rows, local)
	}
	assertParity(t, res.Rows, local)
	total := 0
	for _, n := range res.RunsByWorker {
		total += n
	}
	if want := grid.Runs(); total != want {
		t.Errorf("runs across workers = %d, want %d", total, want)
	}
	cp.Shutdown()
	return res
}

// TestDistributedParityTwoWorkers: shard.Run, the one-shot path, over
// two listening workers merges to the local rows with two shards per
// worker and no requeue.
func TestDistributedParityTwoWorkers(t *testing.T) {
	data, _, local := localReference(t, 6)
	res, err := Run(data, Options{Workers: startWorkers(t, 2), SeedsPerCell: 6})
	if err != nil {
		t.Fatal(err)
	}
	assertParity(t, res.Rows, local)
	if res.Requeues != 0 {
		t.Errorf("unexpected requeues: %d", res.Requeues)
	}
	if len(res.Shards) != 4 {
		t.Errorf("planned %d shards, want 4", len(res.Shards))
	}
}

func TestDistributedParityManyShards(t *testing.T) {
	// More shards than cells forces single-cell seed-range shards.
	parityCase(t, 6, 9, startWorkers(t, 2), PlaneOptions{})
}

// dialOutCut measures a clean dial-out pass through a proxy to the
// listening worker at addr — one worker, so the plane dispatches the
// shards in plan order and the worker's stream is the same on every
// pass — then reruns the sweep on a plane with opts and the fault that
// place returns for the clean pass's exchange boundaries. Both passes
// must match the local rows.
func dialOutCut(t *testing.T, addr string, kind faultKind, place func(ex []int) int, opts PlaneOptions) (res *Result, clean, cut *proxy) {
	t.Helper()
	clean = newProxy(t, addr, true, fault{})
	parityCase(t, 6, 4, []string{clean.addr()}, PlaneOptions{})
	ex := clean.exchanges()
	if len(ex) != 5 {
		t.Fatalf("clean pass: exchange boundaries %v, want the handshake and 4 tasks", ex)
	}
	cut = newProxy(t, addr, true, fault{kind: kind, at: place(ex)})
	res = parityCase(t, 6, 4, []string{cut.addr()}, opts)
	if !cut.hasFired() {
		t.Fatalf("the %v at byte %d never fired", kind, cut.fault.at)
	}
	return res, clean, cut
}

func TestDistributedParityUnderWorkerRestart(t *testing.T) {
	// Reset the worker's connection halfway through its first shard's
	// exchange: the shard must requeue and rerun on the redialed worker
	// without a trace in the merged rows.
	res, _, _ := dialOutCut(t, startWorkers(t, 1)[0], faultReset, func(ex []int) int { return (ex[0] + ex[1]) / 2 }, PlaneOptions{})
	if res.Requeues < 1 {
		t.Errorf("requeues = %d, want ≥ 1 after induced worker drop", res.Requeues)
	}
}

// TestDropBeforeDoneRequeues pins the protocol's one genuinely
// ambiguous disconnect: the worker has shipped every record but the
// connection dies before the done frame arrives. The coordinator must
// treat the shard as incomplete and requeue it — never fold a
// done-less stream into the results — and parityCase's row comparison
// proves the rerun leaves no trace. The cut withholds the last byte of
// the first shard's exchange, so it falls inside the done frame, after
// the last record, whatever the frames' encoded lengths.
func TestDropBeforeDoneRequeues(t *testing.T) {
	addr := startWorkers(t, 1)[0]
	coll := metrics.NewCollector()
	res, clean, cut := dialOutCut(t, addr, faultTruncate, func(ex []int) int { return ex[1] - 1 }, PlaneOptions{Metrics: coll})
	if res.Requeues < 1 {
		t.Errorf("requeues = %d, want ≥ 1 after drop between records and done", res.Requeues)
	}
	// The plane counts every record it reads: all 24 runs, plus the cut
	// shard's 6 read once before the cut and once more on its rerun.
	if got := coll.Snapshot().Runs; got != 24+6 {
		t.Errorf("the plane read %d records, want 30: the done-less shard must run again", got)
	}
	// The offset was measured on one pass and applied to another, which
	// holds only if the stream is byte-deterministic: a second clean
	// pass must reproduce it, and the faulted pass must have sent the
	// same bytes up to the cut (so every record of the shard arrived).
	again := newProxy(t, addr, true, fault{})
	parityCase(t, 6, 4, []string{again.addr()}, PlaneOptions{})
	want := clean.workerStream()
	if got := again.workerStream(); !bytes.Equal(got, want) {
		t.Fatalf("two clean passes streamed different bytes:\n%x\n%x", got, want)
	}
	if got := cut.workerStream(); !bytes.Equal(got, want[:cut.fault.at]) {
		t.Errorf("the faulted pass diverged from the clean one before the cut:\n%x\n%x", got, want[:cut.fault.at])
	}
}

// TestCoordinatorLiveTelemetry: with Metrics set, the control plane
// folds worker-side telemetry frames into the collector while the sweep
// runs, and the final per-shard Runs cover the whole run space.
func TestCoordinatorLiveTelemetry(t *testing.T) {
	data, grid, _ := localReference(t, 6)
	coll := metrics.NewCollector()
	cp, err := NewControlPlane(PlaneOptions{IOTimeout: 10 * time.Second, Log: t.Logf, Metrics: coll})
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	h, err := cp.Submit(data, SubmitOptions{SeedsPerCell: 6, Shards: 4, Name: "telemetry"})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range startWorkers(t, 2) {
		cp.AddWorker(a)
	}
	res, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}

	snap := coll.Snapshot()
	total := grid.Runs()
	if int(snap.Runs) != total {
		t.Errorf("collector runs = %d, want %d", snap.Runs, total)
	}
	if len(snap.Shards) != len(res.Shards) {
		t.Errorf("telemetry covers %d shards, want %d", len(snap.Shards), len(res.Shards))
	}
	var shardRuns uint64
	for _, st := range snap.Shards {
		if st.Runs == 0 {
			t.Errorf("shard %d reported no runs", st.Shard)
		}
		if st.Rounds == 0 {
			t.Errorf("shard %d reported no rounds", st.Shard)
		}
		shardRuns += st.Runs
	}
	if int(shardRuns) != total {
		t.Errorf("per-shard runs sum to %d, want %d", shardRuns, total)
	}
	if snap.RunRounds == 0 {
		t.Error("collector saw no aggregate rounds")
	}
}

// TestWorkerMidStreamTelemetry drives a listening worker directly with
// a telemetry cadence below the shard size (the control plane's fixed
// cadence of 16 is never reached by these small shards): the worker
// interleaves a frame after every second record and a final one before
// done, and each frame counts exactly the records already shipped.
func TestWorkerMidStreamTelemetry(t *testing.T) {
	data, _, _ := localReference(t, 6)
	cl, err := transport.DialShard(startWorkers(t, 1)[0], "", 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	task := transport.ShardTask{Shard: 0, Lo: 0, Hi: 6, SeedsPerCell: 6, MetricsEveryRuns: 2, Spec: data}
	records := 0
	var frames []uint64
	err = cl.RunShard(task, func(transport.ShardRecord) error {
		records++
		return nil
	}, func(m transport.ShardMetrics) {
		if m.Runs != uint64(records) {
			t.Errorf("telemetry frame counts %d runs after %d records", m.Runs, records)
		}
		frames = append(frames, m.Runs)
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []uint64{2, 4, 6}; !reflect.DeepEqual(frames, want) {
		t.Errorf("telemetry frames at runs %v, want %v", frames, want)
	}
}

// TestAllWorkersLostAborts: shard.Run's plane has no listener, so once
// its only worker is unreachable (the dial retries spent) the sweep
// fails instead of waiting for a worker that cannot arrive.
func TestAllWorkersLostAborts(t *testing.T) {
	data, err := specs.Read("er-crash-sweep.yaml")
	if err != nil {
		t.Fatal(err)
	}
	// Grab a port that is closed by the time the coordinator dials.
	w, err := NewWorker("127.0.0.1:0", WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	addr := w.Addr()
	w.Close()
	_, err = Run(data, Options{Workers: []string{addr}, SeedsPerCell: 1})
	if err == nil || !strings.Contains(err.Error(), "workers") {
		t.Fatalf("err = %v, want all-workers-lost abort", err)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run([]byte("ns: [3]"), Options{}); err == nil {
		t.Error("no workers accepted")
	}
	if _, err := Run([]byte("nonsense: ["), Options{Workers: []string{"127.0.0.1:1"}}); err == nil {
		t.Error("bad spec accepted")
	}
}
