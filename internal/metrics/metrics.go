// Package metrics is the observability spine of the reproduction: a
// Sink interface the engines, the hub transport, the batch harness and
// the shard coordinator all emit into, and a lock-cheap Collector that
// aggregates those emissions into snapshots (rounds/sec, deliveries per
// round, convergence progress, per-shard runs-completed, worker
// utilization) suitable for live NDJSON streaming.
//
// Two design rules keep metrics honest:
//
//   - Samples are deterministic. RoundSample and RunSample carry only
//     values derived from the execution itself — never wall-clock time —
//     so two runs of the same seed emit identical series. Every
//     wall-clock-derived quantity lives exclusively in the Timing
//     sub-struct of a Snapshot.
//
//   - Sinks never influence results. The engines treat the sink as a
//     pure tap: it cannot change code-path selection, delivery order, or
//     any Result field (pinned by the metrics-parity property tests).
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"runtime/pprof"
	"runtime/trace"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// RoundSample is one engine (or hub) round, as seen at its end. All
// fields are deterministic functions of the execution.
type RoundSample struct {
	// Round is the zero-based round index within its run.
	Round int
	// Delivered counts messages delivered this round; Lost counts
	// messages the adversary suppressed (alive sender, eligible
	// receiver, no link).
	Delivered int
	Lost      int
	// Running counts the nodes still running at the end of the round
	// (fault-free and not yet crashed); Decided counts the non-Byzantine
	// nodes that have produced an output so far.
	Running int
	Decided int
	// Range is the spread max−min of the running nodes' values at the
	// end of the round — the convergence progress the paper's
	// ε-agreement bounds (zero when no node is running).
	Range float64
}

// RunSample is one completed execution, emitted by the batch layer as
// results are folded in deterministic run order.
type RunSample struct {
	// Decided reports whether every fault-free node produced an output
	// within the round budget.
	Decided bool
	// Rounds is the number of rounds the run executed.
	Rounds int
	// Delivered and Lost are the run's message totals.
	Delivered int
	Lost      int
}

// Sink receives metrics emissions. Implementations must be fast and
// allocation-free on RoundDone (it sits next to the engines' zero-alloc
// steady round) and safe for concurrent use when shared across batch
// workers. A nil Sink everywhere means metrics are off and cost nothing.
type Sink interface {
	// RoundDone fires after every synchronous round.
	RoundDone(RoundSample)
	// RunDone fires after every completed execution of a batch.
	RunDone(RunSample)
}

// ShardStat is one shard's live progress as aggregated by a sweep
// coordinator (local pool shards or remote dyna join workers). Sweep
// segregates concurrent sweeps sharing one collector — a control plane
// running several sweeps folds all their telemetry into its global
// collector, and shard indices restart at 0 per sweep.
type ShardStat struct {
	Sweep     int    `json:"sweep"`
	Shard     int    `json:"shard"`
	Runs      uint64 `json:"runs"`
	Rounds    uint64 `json:"rounds"`
	Delivered uint64 `json:"delivered"`
}

// shardKey identifies one shard of one sweep in the collector's table.
type shardKey struct{ sweep, shard int }

// Timing segregates every wall-clock-derived quantity of a Snapshot.
// Nothing outside this struct may depend on real time: tests compare
// snapshots and sample series with Timing zeroed, and the determinism
// contract of the rest of the Snapshot is pinned by
// TestMetricsSeriesDeterminism.
type Timing struct {
	// ElapsedSec is the wall time since the Collector was created (or
	// last Reset).
	ElapsedSec float64 `json:"elapsed_sec"`
	// RoundsPerSec and RunsPerSec are cumulative rates over ElapsedSec.
	RoundsPerSec float64 `json:"rounds_per_sec"`
	RunsPerSec   float64 `json:"runs_per_sec"`
	// Utilization is busy workers over pool size, 0 when no pool
	// reported in.
	Utilization float64 `json:"utilization"`
}

// Snapshot is one point-in-time aggregate view of a Collector. All
// fields except Timing are deterministic counters/gauges; gauges
// (Range, Running, Decided) hold the most recent sample's value, which
// under concurrent engines is a last-writer-wins race by design.
type Snapshot struct {
	// Rounds, Delivered, Lost accumulate over every RoundDone.
	Rounds    uint64 `json:"rounds"`
	Delivered uint64 `json:"delivered"`
	Lost      uint64 `json:"lost"`
	// Runs counts RunDone emissions; RunsDecided the subset that
	// decided; RunRounds their summed round counts.
	Runs        uint64 `json:"runs"`
	RunsDecided uint64 `json:"runs_decided"`
	RunRounds   uint64 `json:"run_rounds"`
	// Range, Running, Decided mirror the latest RoundSample.
	Range   float64 `json:"range"`
	Running int     `json:"running"`
	Decided int     `json:"decided"`
	// Workers is the reported pool size; Busy the workers currently
	// executing a run.
	Workers int `json:"workers"`
	Busy    int `json:"busy"`
	// Shards carries per-shard progress when a coordinator folds worker
	// telemetry in, sorted by shard index.
	Shards []ShardStat `json:"shards,omitempty"`
	Timing Timing      `json:"timing"`
}

// Collector is the lock-cheap Sink: every hot-path emission is a handful
// of atomic adds/stores (no locks, no allocation), so it can sit on the
// engines' zero-alloc steady round and be shared across a worker pool.
// The per-shard table, fed at coordinator frame rate rather than round
// rate, is the only mutex-guarded state. The zero value is NOT ready;
// use NewCollector (it stamps the wall-clock epoch Timing derives from).
type Collector struct {
	startNanos atomic.Int64

	rounds    atomic.Uint64
	delivered atomic.Uint64
	lost      atomic.Uint64

	runs        atomic.Uint64
	runsDecided atomic.Uint64
	runRounds   atomic.Uint64

	rangeBits atomic.Uint64
	running   atomic.Int64
	decided   atomic.Int64

	workers atomic.Int64
	busy    atomic.Int64

	mu     sync.Mutex
	shards map[shardKey]ShardStat
}

// NewCollector returns a Collector whose Timing epoch is now.
func NewCollector() *Collector {
	c := &Collector{}
	c.startNanos.Store(time.Now().UnixNano())
	return c
}

// RoundDone implements Sink. Safe on a nil receiver (no-op).
func (c *Collector) RoundDone(s RoundSample) {
	if c == nil {
		return
	}
	c.rounds.Add(1)
	c.delivered.Add(uint64(s.Delivered))
	c.lost.Add(uint64(s.Lost))
	c.rangeBits.Store(math.Float64bits(s.Range))
	c.running.Store(int64(s.Running))
	c.decided.Store(int64(s.Decided))
}

// RunDone implements Sink. Safe on a nil receiver (no-op).
func (c *Collector) RunDone(s RunSample) {
	if c == nil {
		return
	}
	c.runs.Add(1)
	if s.Decided {
		c.runsDecided.Add(1)
	}
	c.runRounds.Add(uint64(s.Rounds))
}

// PoolStart records the size of a worker pool that is about to feed
// this collector (harness.PoolObserver).
func (c *Collector) PoolStart(workers int) {
	if c == nil {
		return
	}
	c.workers.Store(int64(workers))
}

// WorkerBusy adjusts the busy-worker gauge by delta (+1 as a worker
// picks up a run, −1 as it finishes one; harness.PoolObserver).
func (c *Collector) WorkerBusy(delta int) {
	if c == nil {
		return
	}
	c.busy.Add(int64(delta))
}

// ShardProgress replaces one shard's live counters — absolute values,
// not deltas, so retransmitted or monotone worker frames fold
// idempotently. The (Sweep, Shard) pair keys the table, so concurrent
// sweeps never clobber each other's rows. Called at coordinator frame
// rate, never per round.
func (c *Collector) ShardProgress(s ShardStat) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if c.shards == nil {
		c.shards = make(map[shardKey]ShardStat)
	}
	c.shards[shardKey{s.Sweep, s.Shard}] = s
	c.mu.Unlock()
}

// Snapshot captures the current aggregate view.
func (c *Collector) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{}
	}
	s := Snapshot{
		Rounds:      c.rounds.Load(),
		Delivered:   c.delivered.Load(),
		Lost:        c.lost.Load(),
		Runs:        c.runs.Load(),
		RunsDecided: c.runsDecided.Load(),
		RunRounds:   c.runRounds.Load(),
		Range:       math.Float64frombits(c.rangeBits.Load()),
		Running:     int(c.running.Load()),
		Decided:     int(c.decided.Load()),
		Workers:     int(c.workers.Load()),
		Busy:        int(c.busy.Load()),
	}
	c.mu.Lock()
	if len(c.shards) > 0 {
		s.Shards = make([]ShardStat, 0, len(c.shards))
		for _, st := range c.shards {
			s.Shards = append(s.Shards, st)
		}
	}
	c.mu.Unlock()
	sort.Slice(s.Shards, func(i, j int) bool {
		if s.Shards[i].Sweep != s.Shards[j].Sweep {
			return s.Shards[i].Sweep < s.Shards[j].Sweep
		}
		return s.Shards[i].Shard < s.Shards[j].Shard
	})

	elapsed := time.Since(time.Unix(0, c.startNanos.Load())).Seconds()
	s.Timing.ElapsedSec = elapsed
	if elapsed > 0 {
		s.Timing.RoundsPerSec = float64(s.Rounds) / elapsed
		s.Timing.RunsPerSec = float64(s.Runs) / elapsed
	}
	if s.Workers > 0 {
		s.Timing.Utilization = float64(s.Busy) / float64(s.Workers)
	}
	return s
}

// SeriesSink records every sample it receives, in emission order — the
// test and offline-analysis sink. Not safe for concurrent use; attach
// it to single-worker (sequential) runs only.
type SeriesSink struct {
	RoundSamples []RoundSample
	RunSamples   []RunSample
}

// RoundDone implements Sink.
func (s *SeriesSink) RoundDone(r RoundSample) { s.RoundSamples = append(s.RoundSamples, r) }

// RunDone implements Sink.
func (s *SeriesSink) RunDone(r RunSample) { s.RunSamples = append(s.RunSamples, r) }

// Tee fans each emission out to every non-nil sink, in order.
func Tee(sinks ...Sink) Sink {
	var live []Sink
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return teeSink(live)
}

type teeSink []Sink

func (t teeSink) RoundDone(s RoundSample) {
	for _, sk := range t {
		sk.RoundDone(s)
	}
}

func (t teeSink) RunDone(s RunSample) {
	for _, sk := range t {
		sk.RunDone(s)
	}
}

// PoolStart and WorkerBusy forward to every sink that observes pools,
// so a Tee that includes a Collector still satisfies
// harness.PoolObserver structurally.
func (t teeSink) PoolStart(workers int) {
	for _, sk := range t {
		if po, ok := sk.(interface{ PoolStart(int) }); ok {
			po.PoolStart(workers)
		}
	}
}

func (t teeSink) WorkerBusy(delta int) {
	for _, sk := range t {
		if po, ok := sk.(interface{ WorkerBusy(int) }); ok {
			po.WorkerBusy(delta)
		}
	}
}

// Streamer periodically writes Collector snapshots as NDJSON (one JSON
// object per line) until closed; Close writes one final snapshot so
// short runs still produce at least one line.
type Streamer struct {
	c        *Collector
	w        io.WriteCloser
	stop     chan struct{}
	done     chan struct{}
	mu       sync.Mutex
	writeErr error
}

// StreamNDJSON starts streaming snapshots of c to w every interval (a
// non-positive interval defaults to one second). The caller must Close
// the returned Streamer; Close also closes w.
func StreamNDJSON(c *Collector, w io.WriteCloser, interval time.Duration) *Streamer {
	if interval <= 0 {
		interval = time.Second
	}
	s := &Streamer{c: c, w: w, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.write()
			case <-s.stop:
				return
			}
		}
	}()
	return s
}

func (s *Streamer) write() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.writeErr != nil {
		return
	}
	enc := json.NewEncoder(s.w)
	if err := enc.Encode(s.c.Snapshot()); err != nil {
		s.writeErr = err
	}
}

// Close stops the ticker, writes a final snapshot line, and closes the
// underlying writer. It returns the first write error, if any.
func (s *Streamer) Close() error {
	close(s.stop)
	<-s.done
	s.write()
	err := s.w.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.writeErr != nil {
		return s.writeErr
	}
	return err
}

// Start is the CLI-facing assembly of a -metrics flag: for an empty
// target it returns a nil collector (attach freely — nil methods are
// no-ops — but prefer leaving sinks nil so the engines keep their
// fast paths) and a no-op closer; otherwise it creates a collector,
// opens the target, and streams NDJSON snapshots at the given interval
// until the closer runs.
func Start(target string, interval time.Duration) (*Collector, func() error, error) {
	if target == "" {
		return nil, func() error { return nil }, nil
	}
	w, err := Open(target)
	if err != nil {
		return nil, nil, err
	}
	c := NewCollector()
	s := StreamNDJSON(c, w, interval)
	return c, s.Close, nil
}

// StartProcess is the prologue every CLI runs before any work: it
// starts a CPU profile (-cpuprofile), a runtime execution trace
// (-exectrace, read with go tool trace: where a CPU profile says which
// code the time went to, the trace says which goroutine ran when — the
// only view of a pipelined run's graph building overlapping its
// delivery) and the -metrics stream (Start), in that order. An empty
// argument starts nothing, and an uncreatable path fails the command up
// front. The returned stop ends all three; callers defer it so every
// exit path flushes. It reports the trace's error ahead of the
// profile's, and drops the metrics stream's: its final snapshot write
// shares its fate with stdout.
func StartProcess(cpuProfile, execTrace, metricsTarget string) (*Collector, func() error, error) {
	stopProfile, err := startRecorder("-cpuprofile", cpuProfile, pprof.StartCPUProfile, pprof.StopCPUProfile)
	if err != nil {
		return nil, nil, err
	}
	stopTrace, err := startRecorder("-exectrace", execTrace, trace.Start, trace.Stop)
	if err != nil {
		stopProfile() //nolint:errcheck // the start error wins
		return nil, nil, err
	}
	coll, closeMetrics, err := Start(metricsTarget, 0)
	if err != nil {
		stopTrace()   //nolint:errcheck // the start error wins
		stopProfile() //nolint:errcheck // the start error wins
		return nil, nil, err
	}
	return coll, func() error {
		closeMetrics() //nolint:errcheck // final snapshot write; fate shared with stdout
		err := stopTrace()
		if perr := stopProfile(); err == nil {
			err = perr
		}
		return err
	}, nil
}

// startRecorder creates path and starts a whole-process recorder into
// it; the returned stop ends the recording and closes the file.
func startRecorder(flag, path string, start func(io.Writer) error, end func()) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", flag, err)
	}
	if err := start(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", flag, err)
	}
	return func() error {
		end()
		return f.Close()
	}, nil
}

// Open resolves a -metrics destination: a "host:port" address dials
// TCP, anything else creates (truncates) a file at that path. The
// address form must split cleanly into a host and an all-digit port and
// contain no path separator, so "metrics.ndjson" and "out/m.json" are
// files while "127.0.0.1:9000" and "[::1]:9000" dial.
func Open(target string) (io.WriteCloser, error) {
	if isAddr(target) {
		return net.DialTimeout("tcp", target, 5*time.Second)
	}
	return os.Create(target)
}

func isAddr(s string) bool {
	if strings.ContainsAny(s, `/\`) {
		return false
	}
	_, port, err := net.SplitHostPort(s)
	if err != nil || port == "" {
		return false
	}
	for _, r := range port {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}
