package shard

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"anondyn"
	"anondyn/internal/metrics"
	"anondyn/internal/spec"
	"anondyn/internal/transport"
)

// WorkerOptions configures one sweep worker process.
type WorkerOptions struct {
	// Workers is the harness pool size each shard runs on (< 1 =
	// GOMAXPROCS) — also the capacity announced to coordinators.
	Workers int
	// Token is the shared secret verified in every coordinator
	// handshake and presented in every control-plane join; empty
	// disables auth (both sides must agree).
	Token string
	// IOTimeout bounds each frame write and the reads within a task
	// exchange; waiting for the next task is always unbounded. 0 means
	// DefaultIOTimeout.
	IOTimeout time.Duration
	// Log, when non-nil, receives progress lines (Printf-style).
	Log func(format string, args ...any)
	// Metrics, when non-nil, observes every shard this worker executes
	// (teed with the per-task telemetry collector) — the hook behind
	// `dyna join -metrics`. Purely observational.
	Metrics metrics.Sink
}

// DefaultIOTimeout is the per-frame bound both ends of the shard
// protocol fall back to.
const DefaultIOTimeout = 2 * time.Minute

// rejoinDelay is JoinLoop's pause between control-plane sessions.
const rejoinDelay = time.Second

// Worker executes shards for any coordinator it is connected to —
// whether the coordinator dialed in (the listener) or the worker
// dialed out (Join/JoinLoop against a resident control plane): parse
// the shipped spec, compile the grid, run the shard's run range on the
// local harness pool, and stream records back in run order.
type Worker struct {
	ln   net.Listener // nil when the worker only joins out
	opts WorkerOptions

	mu       sync.Mutex
	closed   bool
	draining bool
	stop     chan struct{} // closed on Close/Drain: ends JoinLoop retries
	conns    map[net.Conn]struct{}
	joins    map[*joinState]struct{}
}

// NewWorker starts listening on addr (e.g. "127.0.0.1:0"); call Serve
// to accept coordinators. An empty addr skips the listener — the
// worker then only serves control planes it joins via Join/JoinLoop.
func NewWorker(addr string, opts WorkerOptions) (*Worker, error) {
	if opts.IOTimeout <= 0 {
		opts.IOTimeout = DefaultIOTimeout
	}
	if opts.Log == nil {
		opts.Log = func(string, ...any) {}
	}
	w := &Worker{
		opts:  opts,
		stop:  make(chan struct{}),
		conns: make(map[net.Conn]struct{}),
		joins: make(map[*joinState]struct{}),
	}
	if addr != "" {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("shard: listen %s: %w", addr, err)
		}
		w.ln = ln
	}
	return w, nil
}

// Addr returns the worker's listen address ("" without a listener).
func (w *Worker) Addr() string {
	if w.ln == nil {
		return ""
	}
	return w.ln.Addr().String()
}

// Close stops accepting and tears down every live connection; Serve
// returns nil and JoinLoop stops retrying.
func (w *Worker) Close() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return
	}
	w.closed = true
	if !w.draining {
		w.draining = true
		close(w.stop)
	}
	if w.ln != nil {
		w.ln.Close()
	}
	for c := range w.conns {
		c.Close()
	}
}

// Drain announces a graceful departure from every joined control
// plane: idle sessions send a leave frame immediately, busy sessions
// finish their current shard first, and JoinLoop stops reconnecting.
// Listener sessions are unaffected — dialing coordinators own those
// lifecycles. Call Close afterwards to tear down what remains.
func (w *Worker) Drain() {
	w.mu.Lock()
	if w.draining {
		w.mu.Unlock()
		return
	}
	w.draining = true
	close(w.stop)
	joins := make([]*joinState, 0, len(w.joins))
	for js := range w.joins {
		joins = append(joins, js)
	}
	w.mu.Unlock()
	for _, js := range joins {
		js.leaveIfIdle()
	}
}

func (w *Worker) isDraining() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.draining
}

// Serve accepts coordinator connections until Close, handling each on
// its own goroutine (shards within one connection run sequentially;
// parallelism lives in the per-shard harness pool).
func (w *Worker) Serve() error {
	if w.ln == nil {
		return errors.New("shard: worker has no listener (created with an empty address)")
	}
	for {
		raw, err := w.ln.Accept()
		if err != nil {
			w.mu.Lock()
			closed := w.closed
			w.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		if !w.track(raw) {
			raw.Close()
			return nil
		}
		go func() {
			defer w.untrack(raw)
			w.handle(raw)
		}()
	}
}

func (w *Worker) track(raw net.Conn) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return false
	}
	w.conns[raw] = struct{}{}
	return true
}

func (w *Worker) untrack(raw net.Conn) {
	w.mu.Lock()
	delete(w.conns, raw)
	w.mu.Unlock()
	raw.Close()
}

// capacity is the pool size announced in handshakes (0 = "pool
// decides", GOMAXPROCS).
func (w *Worker) capacity() int {
	if w.opts.Workers < 1 {
		return 0
	}
	return w.opts.Workers
}

// handle speaks one coordinator session on an accepted connection.
func (w *Worker) handle(raw net.Conn) {
	srv, err := transport.AcceptShard(raw, w.capacity(), w.opts.Token, w.opts.IOTimeout)
	if err != nil {
		w.opts.Log("shard worker: handshake from %s: %v", raw.RemoteAddr(), err)
		return
	}
	w.session(raw, srv, nil)
}

// Join dials into a resident control plane, registers with the
// worker's capacity and token, and serves tasks until the session ends
// (control-plane shutdown, connection loss, or Drain). JoinLoop is the
// reconnecting form.
func (w *Worker) Join(cpAddr string) error {
	srv, err := transport.JoinControlPlane(cpAddr, w.capacity(), w.opts.Token, w.opts.IOTimeout)
	if err != nil {
		return err
	}
	raw := srv.Conn()
	if !w.track(raw) {
		raw.Close()
		return nil
	}
	defer w.untrack(raw)
	w.opts.Log("shard worker: joined control plane %s", cpAddr)
	js := &joinState{srv: srv, raw: raw}
	w.mu.Lock()
	w.joins[js] = struct{}{}
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		delete(w.joins, js)
		w.mu.Unlock()
	}()
	w.session(raw, srv, js)
	return nil
}

// JoinLoop runs Join against cpAddr, reconnecting one second after
// each session ends, until Close or Drain. Connection failures are
// logged and retried — a control plane that is not up yet (or
// restarting) is an expected state, not an error.
func (w *Worker) JoinLoop(cpAddr string) {
	for {
		select {
		case <-w.stop:
			return
		default:
		}
		if err := w.Join(cpAddr); err != nil {
			w.opts.Log("shard worker: control plane %s: %v (retrying in %v)", cpAddr, err, rejoinDelay)
		}
		select {
		case <-w.stop:
			return
		case <-time.After(rejoinDelay):
		}
	}
}

// session speaks the task → record-stream → done exchanges of one
// coordinator connection. js is non-nil for joined sessions, where it
// coordinates graceful leave with Drain.
func (w *Worker) session(raw net.Conn, srv *transport.ShardServer, js *joinState) {
	for {
		task, err := srv.Next()
		if err != nil {
			if js != nil && js.isLeft() {
				// Drain woke us after announcing the leave; give the
				// control plane a moment to observe it, then close.
				lingerClose(raw)
				return
			}
			if !errors.Is(err, transport.ErrShutdown) {
				w.opts.Log("shard worker: session with %s: %v", raw.RemoteAddr(), err)
			}
			return
		}
		if js != nil && !js.beginTask() {
			// Drain already announced the leave; the control plane
			// requeues this task via the leave it is about to read.
			return
		}
		w.opts.Log("shard worker: shard %d (runs [%d,%d)) from %s", task.Shard, task.Lo, task.Hi, raw.RemoteAddr())
		if err := w.runTask(srv, task); err != nil {
			w.opts.Log("shard worker: shard %d: %v", task.Shard, err)
			return // the connection is no longer trustworthy
		}
		if js != nil && js.endTask(w.isDraining()) {
			w.opts.Log("shard worker: leaving control plane %s", raw.RemoteAddr())
			lingerClose(raw)
			return
		}
	}
}

// joinState coordinates one joined session's graceful leave: the leave
// frame must never interleave with a record stream, so it is sent
// either by Drain while the session is provably idle (blocked waiting
// for a task) or by the session loop itself between tasks.
type joinState struct {
	srv *transport.ShardServer
	raw net.Conn

	mu   sync.Mutex
	busy bool
	left bool
}

// beginTask marks the session busy; false when the leave was already
// announced (the task is abandoned for the control plane to requeue).
func (js *joinState) beginTask() bool {
	js.mu.Lock()
	defer js.mu.Unlock()
	if js.left {
		return false
	}
	js.busy = true
	return true
}

// endTask marks the session idle again and, when draining (or when
// Drain marked the session while it was busy), sends the leave frame;
// true means the session should close.
func (js *joinState) endTask(draining bool) bool {
	js.mu.Lock()
	defer js.mu.Unlock()
	js.busy = false
	if !draining && !js.left {
		return false
	}
	js.left = true
	js.srv.Leave() //nolint:errcheck // best effort: a torn leave degrades to a requeue
	return true
}

// leaveIfIdle sends the leave frame now if the session is between
// tasks; a busy session is only marked, and announces the leave itself
// after its current shard. The leave write is safe while idle: the
// session goroutine only reads (blocked in Next), and begin/end are
// serialized through this mutex.
func (js *joinState) leaveIfIdle() {
	js.mu.Lock()
	defer js.mu.Unlock()
	if js.left {
		return
	}
	js.left = true
	if js.busy {
		return
	}
	js.srv.Leave() //nolint:errcheck // best effort: a torn leave degrades to a requeue
	// Wake the session goroutine out of its blocking Next (sole reader
	// of the connection); it observes left and winds the session down.
	js.raw.SetReadDeadline(time.Now()) //nolint:errcheck
}

// isLeft reports whether the leave was announced.
func (js *joinState) isLeft() bool {
	js.mu.Lock()
	defer js.mu.Unlock()
	return js.left
}

// lingerClose gives the peer a short window to observe the leave frame
// before the FIN: wait for it to close first (or 2s), then close.
func lingerClose(raw net.Conn) {
	raw.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	var buf [1]byte
	raw.Read(buf[:]) //nolint:errcheck
	raw.Close()
}

// runTask executes one shard. A deterministic failure (bad spec,
// out-of-range slice, run error) is reported with a fail frame and the
// session continues; a transport failure returns an error and ends the
// session so the coordinator requeues.
//
// The record stream is gap-checked worker-side: a run that errors out
// of the harness is skipped by the ordered sink, so without the check
// the next record's index would jump and the coordinator would see a
// malformed stream — a transport-looking failure that requeues a
// deterministic error forever. Detecting the gap here turns it into a
// fail frame carrying the run's actual error.
func (w *Worker) runTask(srv *transport.ShardServer, task transport.ShardTask) error {
	_, grid, err := spec.Compile(task.Spec, task.SeedsPerCell)
	if err != nil {
		return srv.Fail(task.Shard, err.Error())
	}
	if task.Hi > grid.Runs() {
		return srv.Fail(task.Shard, fmt.Sprintf("slice [%d,%d) out of range for %d runs", task.Lo, task.Hi, grid.Runs()))
	}
	// The per-task collector feeds the coordinator's live telemetry; the
	// worker process's own sink (if any) rides along on the tee.
	var coll *metrics.Collector
	if task.MetricsEveryRuns > 0 {
		coll = metrics.NewCollector()
	}
	var batchSink metrics.Sink
	if coll != nil {
		batchSink = metrics.Tee(coll, w.opts.Metrics)
	} else {
		batchSink = w.opts.Metrics
	}
	// done is the records-shipped count — exact at frame time, unlike
	// the collector's own run counter, which increments after the
	// ordered sink (this callback) returns.
	telemetry := func(done int) transport.ShardMetrics {
		snap := coll.Snapshot()
		return transport.ShardMetrics{
			Shard:     task.Shard,
			Runs:      uint64(done),
			Rounds:    snap.Rounds,
			Delivered: snap.Delivered,
			Busy:      snap.Busy,
			Workers:   snap.Workers,
		}
	}
	var sendErr error
	count := 0
	next := task.Lo
	runErr := grid.RunSlice(task.Lo, task.Hi,
		anondyn.BatchOptions{Workers: w.opts.Workers, Metrics: batchSink},
		func(c anondyn.Cell, _, run int, _ int64, res *anondyn.Result) error {
			if run != next {
				return fmt.Errorf("record stream gap at run %d (want %d): an earlier run failed", run, next)
			}
			next++
			rec := anondyn.Record(res, c.Eps)
			if err := srv.WriteRecord(transport.ShardRecord{
				Run:          run,
				Decided:      rec.Decided,
				Rounds:       rec.Rounds,
				Bytes:        rec.Bytes,
				OutRangeBits: math.Float64bits(rec.OutRange),
				Violation:    rec.Violation,
			}); err != nil {
				sendErr = err
				return err
			}
			count++
			if coll != nil && count%task.MetricsEveryRuns == 0 && count < task.Runs() {
				if err := srv.WriteMetrics(telemetry(count)); err != nil {
					sendErr = err
					return err
				}
			}
			return nil
		})
	if sendErr != nil {
		return sendErr
	}
	if runErr != nil {
		return srv.Fail(task.Shard, runErr.Error())
	}
	if coll != nil {
		// Final sample so every task ships at least one telemetry frame.
		if err := srv.WriteMetrics(telemetry(count)); err != nil {
			return err
		}
	}
	return srv.Done(task.Shard, count)
}
