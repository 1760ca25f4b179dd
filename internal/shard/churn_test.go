package shard

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"anondyn"
	"anondyn/examples/specs"
	"anondyn/internal/metrics"
	"anondyn/internal/spec"
)

// localReference runs the committed spec locally — the byte-identity
// reference every churn scenario is compared against.
func localReference(t *testing.T, seeds int) (data []byte, grid anondyn.Grid, rows []anondyn.CellResult) {
	t.Helper()
	data, err := specs.Read("er-crash-sweep.yaml")
	if err != nil {
		t.Fatal(err)
	}
	sw, err := spec.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	sw.SeedsPerCell = seeds
	if grid, err = sw.Grid(); err != nil {
		t.Fatal(err)
	}
	if rows, err = grid.Run(anondyn.BatchOptions{Workers: 3}); err != nil {
		t.Fatal(err)
	}
	return data, grid, rows
}

// assertParity compares merged rows to the local reference, in both
// structural and serialized form (the contract is byte-identical
// report rows).
func assertParity(t *testing.T, got, want []anondyn.CellResult) {
	t.Helper()
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(wantJSON) {
		t.Errorf("merged rows differ from local reference:\ndist  %s\nlocal %s", gotJSON, wantJSON)
	}
}

// startPlane runs a listening control plane for workers to join.
func startPlane(t *testing.T, opts PlaneOptions) *ControlPlane {
	t.Helper()
	if opts.Addr == "" {
		opts.Addr = "127.0.0.1:0"
	}
	if opts.IOTimeout == 0 {
		opts.IOTimeout = 10 * time.Second
	}
	if opts.Log == nil {
		opts.Log = t.Logf
	}
	cp, err := NewControlPlane(opts)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := cp.Serve(); err != nil {
			t.Errorf("control plane serve: %v", err)
		}
	}()
	t.Cleanup(func() { cp.Close(); <-done })
	return cp
}

// joinWorker starts a listener-less worker that joins the control
// plane at addr through JoinLoop once start is closed (nil: at once);
// the worker closes with the test.
func joinWorker(t *testing.T, addr string, opts WorkerOptions, start <-chan struct{}) *Worker {
	t.Helper()
	if opts.Workers == 0 {
		opts.Workers = 2
	}
	if opts.Log == nil {
		opts.Log = t.Logf
	}
	w, err := NewWorker("", opts)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if start != nil {
			select {
			case <-start:
			case <-w.stop:
				return
			}
		}
		w.JoinLoop(addr)
	}()
	t.Cleanup(func() { w.Close(); <-done })
	return w
}

// dialInPass sweeps data over a listening control plane that one
// worker joins through a proxy injecting f. With backup set, a second
// worker joins directly the moment the fault fires, so the sweep need
// not wait out the faulted worker's rejoin delay; without it, the one
// worker's JoinLoop must come back to finish.
func dialInPass(t *testing.T, data []byte, seeds int, f fault, backup bool, ioTimeout time.Duration) (*Result, *proxy) {
	t.Helper()
	cp := startPlane(t, PlaneOptions{IOTimeout: ioTimeout})
	p := newProxy(t, cp.Addr(), false, f)
	joinWorker(t, p.addr(), WorkerOptions{}, nil)
	if backup {
		joinWorker(t, cp.Addr(), WorkerOptions{}, p.fired)
	}
	h, err := cp.Submit(data, SubmitOptions{SeedsPerCell: seeds, Shards: 4, Name: "dial-in"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if f.kind != faultNone && !p.hasFired() {
		t.Fatalf("the %v at byte %d never fired", f.kind, f.at)
	}
	return res, p
}

// dialInKill measures a clean dial-in pass (one worker, so the plane
// dispatches the shards in plan order and the worker's stream is the
// same on every pass), then resets the joined worker's connection
// halfway through its first shard's exchange and lets its JoinLoop
// bring it back. It returns the faulted pass's result.
func dialInKill(t *testing.T, data []byte, seeds int) *Result {
	t.Helper()
	_, clean := dialInPass(t, data, seeds, fault{}, false, 10*time.Second)
	ex := clean.exchanges()
	if len(ex) != 5 {
		t.Fatalf("clean pass: exchange boundaries %v, want the handshake and 4 tasks", ex)
	}
	res, _ := dialInPass(t, data, seeds, fault{kind: faultReset, at: (ex[0] + ex[1]) / 2}, false, 10*time.Second)
	return res
}

// TestWorkerJoinsMidSweep: a sweep submitted to an empty plane sits
// queued (nothing to dispatch to), then completes the moment workers
// join — including one joining while the sweep is already running —
// with rows byte-identical to the local run.
func TestWorkerJoinsMidSweep(t *testing.T) {
	data, _, local := localReference(t, 6)
	cp := startPlane(t, PlaneOptions{})

	h, err := cp.Submit(data, SubmitOptions{SeedsPerCell: 6, Shards: 8, Name: "churn-join"})
	if err != nil {
		t.Fatal(err)
	}
	// No workers yet: the sweep must wait, not fail.
	time.Sleep(50 * time.Millisecond)
	if st := h.Status(); st.Done != 0 || st.Workers != 0 {
		t.Fatalf("sweep progressed with no workers: %+v", st)
	}

	joinWorker(t, cp.Addr(), WorkerOptions{}, nil)
	// Second worker joins mid-run.
	joinWorker(t, cp.Addr(), WorkerOptions{}, afterDelay(10*time.Millisecond))

	res, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	assertParity(t, res.Rows, local)
	total := 0
	for _, n := range res.RunsByWorker {
		total += n
	}
	if want := h.Total(); total != want {
		t.Errorf("runs across workers = %d, want %d", total, want)
	}
}

// TestJoinedWorkerKilledMidShard: a joined worker whose connection is
// severed in the middle of a record stream unregisters; its shard
// rolls back and requeues, and the worker's rejoin loop brings it back
// to finish the sweep. The merged rows carry no trace of the partial
// stream.
func TestJoinedWorkerKilledMidShard(t *testing.T) {
	data, _, local := localReference(t, 6)
	res := dialInKill(t, data, 6)
	if res.Requeues < 1 {
		t.Errorf("requeues = %d, want ≥ 1 after mid-shard kill", res.Requeues)
	}
	assertParity(t, res.Rows, local)
}

// TestGracefulLeaveRequeuesNothing: draining a worker between tasks
// announces the leave; the remaining worker finishes the sweep and the
// rows stay byte-identical.
func TestGracefulLeaveMidSweep(t *testing.T) {
	data, _, local := localReference(t, 8)
	cp := startPlane(t, PlaneOptions{})

	leaver := joinWorker(t, cp.Addr(), WorkerOptions{}, nil)
	joinWorker(t, cp.Addr(), WorkerOptions{}, nil)

	h, err := cp.Submit(data, SubmitOptions{SeedsPerCell: 8, Shards: 8, Name: "churn-leave"})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	leaver.Drain()

	res, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	assertParity(t, res.Rows, local)
}

// TestConcurrentSweepsIsolated: two sweeps submitted to one plane run
// concurrently over the same fleet under round-robin dispatch; each
// finishes with rows byte-identical to its own local run, and the
// plane's collector keeps each sweep's shard telemetry apart.
func TestConcurrentSweepsIsolated(t *testing.T) {
	dataA, gridA, localA := localReference(t, 5)
	dataB, gridB, localB := localReference(t, 3)

	// Real listening workers, dial-out fleet: the one-shot topology.
	coll := metrics.NewCollector()
	cp, err := NewControlPlane(PlaneOptions{IOTimeout: 10 * time.Second, Log: t.Logf, Metrics: coll})
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()

	hA, err := cp.Submit(dataA, SubmitOptions{SeedsPerCell: 5, Shards: 4, Name: "sweep-a"})
	if err != nil {
		t.Fatal(err)
	}
	hB, err := cp.Submit(dataB, SubmitOptions{SeedsPerCell: 3, Shards: 4, Name: "sweep-b"})
	if err != nil {
		t.Fatal(err)
	}
	if hA.ID() == hB.ID() {
		t.Fatal("sweeps share an id")
	}
	for _, a := range startWorkers(t, 2) {
		cp.AddWorker(a)
	}

	resA, err := hA.Wait()
	if err != nil {
		t.Fatal(err)
	}
	resB, err := hB.Wait()
	if err != nil {
		t.Fatal(err)
	}
	assertParity(t, resA.Rows, localA)
	assertParity(t, resB.Rows, localB)

	// The plane's collector counted both sweeps' runs and keys every
	// shard row by its sweep id, so neither sweep's rows clobber the
	// other's (shard indices restart at 0 per sweep).
	snap := coll.Snapshot()
	if int(snap.Runs) != gridA.Runs()+gridB.Runs() {
		t.Errorf("collector has %d runs, want %d + %d", snap.Runs, gridA.Runs(), gridB.Runs())
	}
	shards := map[int]int{}
	for _, s := range snap.Shards {
		shards[s.Sweep]++
	}
	if shards[hA.ID()] != len(resA.Shards) || shards[hB.ID()] != len(resB.Shards) || len(shards) != 2 {
		t.Errorf("shard telemetry per sweep %v, want %d for sweep %d and %d for sweep %d",
			shards, len(resA.Shards), hA.ID(), len(resB.Shards), hB.ID())
	}
	cp.Shutdown()
}

// TestJoinBadTokenRejected: a worker presenting the wrong token is
// turned away without occupying a membership slot, and a correct-token
// worker joining afterwards serves the sweep normally.
func TestJoinBadTokenRejected(t *testing.T) {
	data, _, local := localReference(t, 3)
	cp := startPlane(t, PlaneOptions{Token: "s3cret"})

	bad, err := NewWorker("", WorkerOptions{Workers: 2, Token: "wrong", Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	if err := bad.Join(cp.Addr()); err == nil {
		t.Fatal("join with wrong token succeeded")
	} else if strings.Contains(err.Error(), "wrong") {
		t.Errorf("rejection echoes the presented token: %v", err)
	}
	if n := cp.Snapshot().Workers; n != 0 {
		t.Fatalf("rejected worker occupies a slot: %d live members", n)
	}

	joinWorker(t, cp.Addr(), WorkerOptions{Token: "s3cret"}, nil)
	h, err := cp.Submit(data, SubmitOptions{SeedsPerCell: 3, Shards: 2, Name: "churn-token"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	assertParity(t, res.Rows, local)
}

// afterDelay returns a channel that closes after d.
func afterDelay(d time.Duration) <-chan struct{} {
	c := make(chan struct{})
	time.AfterFunc(d, func() { close(c) })
	return c
}
