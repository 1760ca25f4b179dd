package shard

import (
	"encoding/json"
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

// PlaneOptions configures a resident ControlPlane.
type PlaneOptions struct {
	// Addr is the listen address for worker joins and sweep
	// submissions ("host:port"; ":0" picks a port). Empty runs the
	// control plane without a listener — membership then comes from
	// AddWorker and sweeps from in-process Submit calls, which is how
	// the one-shot Run wrapper uses it. Such a plane can never gain a
	// worker it was not handed, so it fails its active sweeps when the
	// last one is lost; a listening plane holds them queued for the
	// next join.
	Addr string
	// Token is the shared secret every join and submit handshake must
	// present (constant-time compare); empty disables auth.
	Token string
	// IOTimeout bounds each frame exchange (for a record stream: the
	// gap between consecutive records). 0 means DefaultIOTimeout.
	IOTimeout time.Duration
	// Log, when non-nil, receives progress lines (Printf-style).
	Log func(format string, args ...any)
	// Metrics, when non-nil, aggregates every sweep's live telemetry
	// into one collector (per-shard rows keyed by sweep).
	Metrics *metrics.Collector
}

// The fixed reconnect and telemetry policy.
const (
	// dialRetries is how many extra connect attempts a dial-out worker
	// added with AddWorker gets, retryDelay apart, before the plane
	// gives up on it (joined workers own their reconnect loop).
	dialRetries = 3
	retryDelay  = 200 * time.Millisecond
	// maxConsecutiveFailures is how many transport failures in a row a
	// dial-out member may accumulate (with successful reconnects in
	// between) before the plane abandons it.
	maxConsecutiveFailures = 3
	// metricsEveryRuns is the telemetry cadence asked of each worker:
	// one progress frame per that many completed runs.
	metricsEveryRuns = 16
)

func (o *PlaneOptions) fill() {
	if o.IOTimeout <= 0 {
		o.IOTimeout = DefaultIOTimeout
	}
	if o.Log == nil {
		o.Log = func(string, ...any) {}
	}
}

// SubmitOptions parameterizes one sweep submission.
type SubmitOptions struct {
	// SeedsPerCell, when > 0, overrides the spec's seeds_per_cell.
	SeedsPerCell int
	// Shards is the target shard count; < 1 sizes the plan from live
	// member capacity (twice the fleet's capacity shares, so a lost
	// worker's load spreads instead of doubling one peer).
	Shards int
	// Name labels the sweep in logs and status lines.
	Name string
	// OnRow, when non-nil, streams each cell's finished row as its last
	// run commits (in cell order). It runs under the control plane's
	// scheduling lock: keep it fast and never call back into the plane.
	OnRow func(cell int, row anondyn.CellResult)
}

// ControlPlane is the resident sweep service: workers join and leave
// at any time, sweeps queue against it concurrently, and every
// admitted sweep's records fold through a streaming merge whose output
// is byte-identical to a local Grid.Run. Shards are dispatched fair
// round-robin across active sweeps, so a long sweep cannot starve a
// short one.
type ControlPlane struct {
	opts PlaneOptions
	ln   net.Listener

	mu       sync.Mutex
	cond     *sync.Cond
	closed   bool // hard stop: members exit as soon as possible
	draining bool // graceful: no new joins/submits, finish what's queued
	sweeps   map[int]*sweep
	order    []*sweep // active sweeps in submission order (round-robin ring)
	rr       int      // round-robin cursor into order
	nextID   int
	members  map[int]*member
	nextMem  int
	live     int

	wg sync.WaitGroup // accept loop + member loops + submit sessions
}

// sweep is one queued/running sweep's state. All fields are guarded by
// the plane's mu except the immutables set at submit time.
type sweep struct {
	id       int
	name     string
	specData []byte
	parsed   *spec.Sweep
	shards   []Shard
	seedsPer int
	total    int

	pending  []int
	inflight int
	state    transport.SweepState
	requeues int
	runsBy   map[string]int

	merge *streamMerge

	err  error
	done chan struct{}
}

// member is one unit of the worker census: either a dial-out worker
// from a one-shot fleet list (redialed with the retry budget on
// failure) or a worker that joined over the listener (it owns its own
// reconnect loop, so a lost connection just unregisters it).
type member struct {
	id       int
	addr     string
	capacity int
	redial   bool
	cl       *transport.ShardClient
}

// NewControlPlane starts a control plane; with a non-empty Addr it
// listens immediately (call Serve to accept), otherwise it is purely
// in-process.
func NewControlPlane(opts PlaneOptions) (*ControlPlane, error) {
	opts.fill()
	cp := &ControlPlane{
		opts:    opts,
		sweeps:  make(map[int]*sweep),
		members: make(map[int]*member),
	}
	cp.cond = sync.NewCond(&cp.mu)
	if opts.Addr != "" {
		ln, err := net.Listen("tcp", opts.Addr)
		if err != nil {
			return nil, fmt.Errorf("shard: listen %s: %w", opts.Addr, err)
		}
		cp.ln = ln
	}
	return cp, nil
}

// Addr returns the listen address ("" without a listener).
func (cp *ControlPlane) Addr() string {
	if cp.ln == nil {
		return ""
	}
	return cp.ln.Addr().String()
}

// Serve accepts joins and submissions until Shutdown or Close. Only
// meaningful with a listener.
func (cp *ControlPlane) Serve() error {
	if cp.ln == nil {
		return errors.New("shard: control plane has no listener")
	}
	for {
		raw, err := cp.ln.Accept()
		if err != nil {
			cp.mu.Lock()
			stopped := cp.closed || cp.draining
			cp.mu.Unlock()
			if stopped {
				return nil
			}
			return err
		}
		cp.wg.Add(1)
		go func() {
			defer cp.wg.Done()
			cp.handleConn(raw)
		}()
	}
}

// handleConn demuxes one inbound connection into a worker join or a
// sweep submission.
func (cp *ControlPlane) handleConn(raw net.Conn) {
	acc, err := transport.AcceptControlPlane(raw, cp.opts.Token, cp.opts.IOTimeout)
	if err != nil {
		cp.opts.Log("shard: rejected connection from %s: %v", raw.RemoteAddr(), err)
		raw.Close()
		return
	}
	if acc.Worker != nil {
		m := &member{addr: raw.RemoteAddr().String(), capacity: acc.Worker.Capacity, cl: acc.Worker}
		if !cp.register(m) {
			acc.Worker.Stop()
			acc.Worker.Close()
			return
		}
		cp.opts.Log("shard: worker %s joined (capacity %d)", m.addr, m.capacity)
		cp.memberLoop(m)
		return
	}
	if acc.Status != nil {
		defer acc.Status.Close()
		if err := acc.Status.Send(cp.Snapshot()); err != nil {
			cp.opts.Log("shard: status query from %s failed: %v", raw.RemoteAddr(), err)
		}
		return
	}
	cp.handleSubmit(acc.Submit)
}

// Snapshot reports the live worker census and every active (queued or
// running) sweep in submission order — the payload behind dyna
// status. Finished sweeps are not retained.
func (cp *ControlPlane) Snapshot() transport.PlaneStatus {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	st := transport.PlaneStatus{Workers: cp.live}
	for _, sw := range cp.order {
		st.Sweeps = append(st.Sweeps, transport.SweepStatusInfo{
			ID:       sw.id,
			Name:     sw.name,
			State:    sw.state,
			Done:     sw.merge.doneRuns(),
			Total:    sw.total,
			Requeues: sw.requeues,
		})
	}
	return st
}

// register adds a member to the census; false when the plane is
// shutting down.
func (cp *ControlPlane) register(m *member) bool {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if cp.closed || cp.draining {
		return false
	}
	m.id = cp.nextMem
	cp.nextMem++
	cp.members[m.id] = m
	cp.live++
	cp.cond.Broadcast()
	return true
}

// AddWorker registers a dial-out worker (one-shot fleet lists). The
// member counts as live immediately — the connection happens lazily on
// its first task, with the retry budget — so a Submit racing the dials
// never sees an empty fleet.
func (cp *ControlPlane) AddWorker(addr string) {
	m := &member{addr: addr, redial: true}
	if !cp.register(m) {
		return
	}
	cp.wg.Add(1)
	go func() {
		defer cp.wg.Done()
		cp.memberLoop(m)
	}()
}

// unregister removes a member; losing the last one fails active sweeps
// when the plane has no listener to bring another.
func (cp *ControlPlane) unregister(m *member) {
	if m.cl != nil {
		m.cl.Close()
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	delete(cp.members, m.id)
	cp.live--
	if cp.live == 0 && cp.ln == nil {
		for _, sw := range append([]*sweep(nil), cp.order...) {
			cp.failLocked(sw, fmt.Errorf("shard: all workers lost with %d shards unfinished (last: %s)",
				sw.merge.remaining(), m.addr))
		}
	}
	cp.cond.Broadcast()
}

// Submit compiles and enqueues one sweep, returning a handle to watch
// and wait on. The sweep starts as soon as the round-robin reaches it.
func (cp *ControlPlane) Submit(specData []byte, o SubmitOptions) (*SweepHandle, error) {
	parsed, grid, err := spec.Compile(specData, o.SeedsPerCell)
	if err != nil {
		return nil, err
	}
	cells := grid.Cells()
	per := grid.SeedsPerCell
	if per < 1 {
		per = 1
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if cp.closed || cp.draining {
		return nil, errors.New("shard: control plane is shutting down")
	}
	want := o.Shards
	if want < 1 {
		want = cp.defaultShardsLocked()
	}
	shards := Plan(len(cells), per, want)
	if len(shards) == 0 {
		return nil, errors.New("shard: empty sweep (no cells)")
	}
	sw := &sweep{
		id:       cp.nextID,
		name:     o.Name,
		specData: specData,
		parsed:   parsed,
		shards:   shards,
		seedsPer: o.SeedsPerCell,
		total:    shards[len(shards)-1].Hi,
		pending:  make([]int, len(shards)),
		state:    transport.SweepQueued,
		runsBy:   make(map[string]int),
		merge:    newStreamMerge(cells, per, shards, o.OnRow),
		done:     make(chan struct{}),
	}
	for i := range sw.pending {
		sw.pending[i] = i
	}
	cp.nextID++
	cp.sweeps[sw.id] = sw
	cp.order = append(cp.order, sw)
	cp.opts.Log("shard: sweep %d (%s) queued: %d runs in %d shards", sw.id, sw.name, sw.total, len(shards))
	cp.cond.Broadcast()
	return &SweepHandle{cp: cp, sw: sw}, nil
}

// defaultShardsLocked sizes a plan from the live census: twice the
// fleet's capacity shares (a worker at the mean capacity is one share,
// a double-capacity worker two), so shard granularity tracks both
// fleet size and skew. Unknown capacities (dial-out members before
// first contact announce 0) count as one share; an empty census falls
// back to 4.
func (cp *ControlPlane) defaultShardsLocked() int {
	count, sum := 0, 0
	for _, m := range cp.members {
		count++
		sum += m.capacity
	}
	if count == 0 {
		return 4
	}
	if sum == 0 {
		return 2 * count
	}
	mean := float64(sum) / float64(count)
	shares := 0
	for _, m := range cp.members {
		s := int(math.Round(float64(m.capacity) / mean))
		if s < 1 {
			s = 1
		}
		shares += s
	}
	return 2 * shares
}

// nextTask blocks until a shard is available (fair round-robin across
// active sweeps), the plane is closed, or it is draining with nothing
// left; ok is false in the latter two cases.
func (cp *ControlPlane) nextTask() (sw *sweep, idx int, ok bool) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	for {
		if cp.closed {
			return nil, 0, false
		}
		if n := len(cp.order); n > 0 {
			for k := 0; k < n; k++ {
				cand := cp.order[(cp.rr+k)%n]
				if len(cand.pending) == 0 {
					continue
				}
				idx = cand.pending[0]
				cand.pending = cand.pending[1:]
				cand.inflight++
				cand.state = transport.SweepRunning
				cp.rr = (cp.rr + k + 1) % n
				return cand, idx, true
			}
		}
		if cp.draining && len(cp.order) == 0 {
			return nil, 0, false
		}
		cp.cond.Wait()
	}
}

// memberLoop drives one member: pull a shard, stream it, commit or
// requeue. For dial-out members a transport failure closes and redials
// with the retry budget; for joined members the connection is the
// membership, so a failure unregisters (the worker's own join loop
// brings it back).
func (cp *ControlPlane) memberLoop(m *member) {
	defer cp.unregister(m)
	defer func() {
		if m.cl != nil {
			m.cl.Stop()
			m.cl.Close()
		}
	}()
	failures := 0
	for {
		sw, idx, ok := cp.nextTask()
		if !ok {
			return
		}
		if m.cl == nil {
			cl, err := cp.dial(m.addr)
			if err != nil {
				cp.opts.Log("shard: worker %s unreachable: %v", m.addr, err)
				cp.requeue(sw, idx, false)
				return
			}
			m.cl = cl
			cp.mu.Lock()
			m.capacity = cl.Capacity
			cp.mu.Unlock()
		}
		sh := sw.shards[idx]
		task := transport.ShardTask{
			Shard:            sh.Index,
			Lo:               sh.Lo,
			Hi:               sh.Hi,
			SeedsPerCell:     sw.seedsPer,
			MetricsEveryRuns: metricsEveryRuns,
			Spec:             sw.specData,
		}
		count := 0
		err := m.cl.RunShard(task, func(r transport.ShardRecord) error {
			cp.mu.Lock()
			var ferr error
			if sw.state != transport.SweepFailed {
				ferr = sw.merge.fold(idx, r)
				if ferr != nil {
					cp.failLocked(sw, ferr)
				}
			}
			cp.mu.Unlock()
			if ferr != nil {
				// Keep draining the stream so the session stays framed;
				// the records of a failed sweep are read and dropped.
				return nil
			}
			count++
			cp.opts.Metrics.RunDone(metrics.RunSample{Decided: r.Decided, Rounds: r.Rounds})
			return nil
		}, func(tm transport.ShardMetrics) {
			cp.opts.Metrics.ShardProgress(metrics.ShardStat{
				Sweep:     sw.id,
				Shard:     tm.Shard,
				Runs:      tm.Runs,
				Rounds:    tm.Rounds,
				Delivered: tm.Delivered,
			})
		})
		var shardErr *transport.ShardError
		switch {
		case err == nil:
			cp.finishShard(sw, idx, m.addr, count)
			failures = 0
		case errors.As(err, &shardErr):
			// Deterministic rejection: any worker would fail this sweep
			// the same way. Fail the sweep; the member (which spoke the
			// protocol cleanly) stays.
			cp.opts.Log("shard: sweep %d rejected by worker %s: %v", sw.id, m.addr, err)
			cp.failShard(sw, idx, shardErr)
		case errors.Is(err, transport.ErrWorkerLeft):
			// Graceful leave raced this task onto the wire: requeue
			// without charging anyone and let the member go.
			cp.opts.Log("shard: worker %s left, %v requeued", m.addr, sh)
			cp.requeue(sw, idx, true)
			return
		default:
			cp.opts.Log("shard: %v of sweep %d on worker %s: %v (requeued)", sh, sw.id, m.addr, err)
			cp.requeue(sw, idx, true)
			m.cl.Close()
			m.cl = nil
			failures++
			if !m.redial {
				return
			}
			if failures >= maxConsecutiveFailures {
				cp.opts.Log("shard: abandoning worker %s after %d consecutive failures", m.addr, failures)
				return
			}
		}
	}
}

// dial connects to a dial-out worker with the retry budget.
func (cp *ControlPlane) dial(addr string) (*transport.ShardClient, error) {
	var lastErr error
	for attempt := 0; attempt <= dialRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(retryDelay)
		}
		cl, err := transport.DialShard(addr, cp.opts.Token, cp.opts.IOTimeout)
		if err == nil {
			return cl, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// finishShard commits one completed shard into the sweep's merge and
// finishes the sweep when it was the last.
func (cp *ControlPlane) finishShard(sw *sweep, idx int, worker string, runs int) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	sw.inflight--
	if sw.state == transport.SweepFailed {
		cp.cond.Broadcast()
		return
	}
	sw.runsBy[worker] += runs
	if err := sw.merge.commit(idx); err != nil {
		cp.failLocked(sw, err)
		return
	}
	if sw.merge.complete() {
		if _, err := sw.merge.rows(); err != nil {
			cp.failLocked(sw, err)
			return
		}
		sw.state = transport.SweepDone
		cp.removeFromOrderLocked(sw)
		close(sw.done)
		cp.opts.Log("shard: sweep %d (%s) done: %d runs, %d requeues", sw.id, sw.name, sw.total, sw.requeues)
	}
	cp.cond.Broadcast()
}

// requeue returns a dispatched shard to its sweep's queue after a
// transport failure or a worker leave, rolling back any provisional
// folds. counted=false skips the requeue counter (the shard never
// reached a worker, e.g. a dial failure).
func (cp *ControlPlane) requeue(sw *sweep, idx int, counted bool) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	sw.inflight--
	if sw.state == transport.SweepFailed {
		cp.cond.Broadcast()
		return
	}
	sw.merge.rollback(idx)
	if counted {
		sw.requeues++
	}
	sw.pending = append(sw.pending, idx)
	cp.cond.Broadcast()
}

// failShard fails a sweep on a worker's deterministic rejection.
func (cp *ControlPlane) failShard(sw *sweep, idx int, err error) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	sw.inflight--
	sw.merge.rollback(idx)
	cp.failLocked(sw, err)
}

// failLocked transitions a sweep to failed: pending shards are
// dropped, waiters wake, in-flight streams drain into the void.
func (cp *ControlPlane) failLocked(sw *sweep, err error) {
	if sw.state == transport.SweepDone || sw.state == transport.SweepFailed {
		return
	}
	sw.state = transport.SweepFailed
	sw.err = err
	sw.pending = nil
	cp.removeFromOrderLocked(sw)
	close(sw.done)
	cp.opts.Log("shard: sweep %d (%s) failed: %v", sw.id, sw.name, err)
	cp.cond.Broadcast()
}

func (cp *ControlPlane) removeFromOrderLocked(sw *sweep) {
	for i, s := range cp.order {
		if s == sw {
			cp.order = append(cp.order[:i], cp.order[i+1:]...)
			if cp.rr > i {
				cp.rr--
			}
			if len(cp.order) > 0 {
				cp.rr %= len(cp.order)
			} else {
				cp.rr = 0
			}
			return
		}
	}
}

// handleSubmit serves one sweep client: enqueue, ack, push status
// twice a second, finish with rows or the failure. A client that
// disconnects mid-sweep does not cancel the sweep (its report is
// simply unobserved).
func (cp *ControlPlane) handleSubmit(s *transport.SubmitSession) {
	defer s.Close()
	h, err := cp.Submit(s.Req.Spec, SubmitOptions{
		SeedsPerCell: s.Req.SeedsPerCell,
		Shards:       s.Req.Shards,
		Name:         s.Req.Name,
	})
	if err != nil {
		s.Fail(0, err.Error()) //nolint:errcheck
		return
	}
	if err := s.Ack(h.ID(), h.Total()); err != nil {
		return
	}
	tick := time.NewTicker(500 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-h.Done():
			res, err := h.Wait()
			if err != nil {
				s.Fail(h.ID(), err.Error()) //nolint:errcheck
				return
			}
			s.Status(h.Status()) //nolint:errcheck
			rowsJSON, err := json.Marshal(res.Rows)
			if err != nil {
				s.Fail(h.ID(), err.Error()) //nolint:errcheck
				return
			}
			if err := s.Rows(h.ID(), rowsJSON); err != nil {
				cp.opts.Log("shard: sweep %d client gone before rows: %v", h.ID(), err)
			}
			return
		case <-tick.C:
			if err := s.Status(h.Status()); err != nil {
				cp.opts.Log("shard: sweep %d status push failed (client gone): %v", h.ID(), err)
				return
			}
		}
	}
}

// Shutdown drains gracefully: no new joins or submissions, queued
// sweeps finish, then members get stop frames and the plane closes.
func (cp *ControlPlane) Shutdown() {
	cp.mu.Lock()
	if cp.closed || cp.draining {
		cp.mu.Unlock()
		cp.wg.Wait()
		return
	}
	cp.draining = true
	cp.mu.Unlock()
	cp.cond.Broadcast()
	if cp.ln != nil {
		cp.ln.Close()
	}
	cp.wg.Wait()
}

// Close tears the plane down without waiting for queued sweeps:
// active sweeps fail, member connections drop.
func (cp *ControlPlane) Close() {
	cp.mu.Lock()
	if cp.closed {
		cp.mu.Unlock()
		return
	}
	cp.closed = true
	for _, sw := range append([]*sweep(nil), cp.order...) {
		cp.failLocked(sw, errors.New("shard: control plane closed"))
	}
	var conns []*transport.ShardClient
	for _, m := range cp.members {
		if m.cl != nil {
			conns = append(conns, m.cl)
		}
	}
	cp.mu.Unlock()
	cp.cond.Broadcast()
	if cp.ln != nil {
		cp.ln.Close()
	}
	for _, cl := range conns {
		cl.Close()
	}
	cp.wg.Wait()
}

// SweepHandle is a submitted sweep's watch-and-wait handle.
type SweepHandle struct {
	cp *ControlPlane
	sw *sweep
}

// ID returns the sweep's id on the plane.
func (h *SweepHandle) ID() int { return h.sw.id }

// Total returns the sweep's planned run count.
func (h *SweepHandle) Total() int { return h.sw.total }

// Done is closed when the sweep finishes (either way).
func (h *SweepHandle) Done() <-chan struct{} { return h.sw.done }

// Status snapshots the sweep's progress. Done counts runs of committed
// shards only — a shard that streamed and was lost counts zero until
// its rerun commits.
func (h *SweepHandle) Status() transport.SweepStatus {
	cp := h.cp
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return transport.SweepStatus{
		Sweep:    h.sw.id,
		State:    h.sw.state,
		Done:     h.sw.merge.doneRuns(),
		Total:    h.sw.total,
		Requeues: h.sw.requeues,
		Workers:  cp.live,
	}
}

// Wait blocks until the sweep finishes and returns its result.
func (h *SweepHandle) Wait() (*Result, error) {
	<-h.sw.done
	cp := h.cp
	cp.mu.Lock()
	defer cp.mu.Unlock()
	sw := h.sw
	if sw.err != nil {
		return nil, sw.err
	}
	rows, err := sw.merge.rows()
	if err != nil {
		return nil, err
	}
	return &Result{
		Sweep:        sw.parsed,
		Rows:         rows,
		Shards:       sw.shards,
		Requeues:     sw.requeues,
		RunsByWorker: sw.runsBy,
	}, nil
}
