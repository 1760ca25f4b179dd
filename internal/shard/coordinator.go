package shard

import (
	"errors"
	"time"

	"anondyn"
	"anondyn/internal/metrics"
	"anondyn/internal/spec"
)

// Options configures one coordinated sweep — the one-shot form: a
// fixed fleet of worker addresses, one spec, run to completion. It is
// a thin client of the ControlPlane (fleet members registered as
// dial-out workers, one sweep submitted, wait, drain), so the one-shot
// path and the resident service share every line of dispatch, merge,
// and requeue logic.
type Options struct {
	// Workers are the worker addresses (host:port). Required.
	Workers []string
	// Shards is the target shard count; < 1 sizes the plan from the
	// fleet (2 shards per worker) so a lost worker's load spreads
	// instead of doubling one peer.
	Shards int
	// SeedsPerCell, when > 0, overrides the spec's seeds_per_cell on
	// both sides of the wire.
	SeedsPerCell int
	// MaxPending bounds each worker's per-shard reorder window
	// (harness.Options.MaxPending; 0 = the harness's built-in bound).
	MaxPending int
	// Token is the shared secret presented in every worker handshake;
	// empty disables auth (both sides must agree).
	Token string
	// IOTimeout bounds each frame exchange (for a record stream: the
	// gap between consecutive records). 0 means DefaultIOTimeout.
	IOTimeout time.Duration
	// DialRetries is how many extra connect attempts a worker gets
	// after a failure before the coordinator gives up on it (its queued
	// work moves to the surviving workers). Default 3.
	DialRetries int
	// RetryDelay is the pause between reconnect attempts; default
	// 200ms.
	RetryDelay time.Duration
	// Log, when non-nil, receives progress lines (Printf-style).
	Log func(format string, args ...any)
	// Metrics, when non-nil, aggregates the sweep's live telemetry: one
	// RunDone per record as it arrives off the wire, plus the workers'
	// interleaved per-shard progress frames (folded via ShardProgress).
	// Requeued shards may double-count their partial runs — this is
	// telemetry, not the merge, which stays all-or-nothing per shard.
	Metrics *metrics.Collector
	// MetricsEveryRuns is the telemetry cadence asked of each worker
	// (one frame per that many completed runs); < 1 with Metrics set
	// defaults to 16. Ignored when Metrics is nil.
	MetricsEveryRuns int
	// OnRow, when non-nil, streams each cell's finished row as its last
	// run commits (in cell order) — report output can render while the
	// sweep runs. Runs under the control plane's scheduling lock; keep
	// it fast.
	OnRow func(cell int, row anondyn.CellResult)
}

func (o *Options) fill() error {
	if len(o.Workers) == 0 {
		return errors.New("shard: no workers (pass at least one address)")
	}
	if o.IOTimeout <= 0 {
		o.IOTimeout = DefaultIOTimeout
	}
	if o.DialRetries < 1 {
		o.DialRetries = 3
	}
	if o.RetryDelay <= 0 {
		o.RetryDelay = 200 * time.Millisecond
	}
	if o.Log == nil {
		o.Log = func(string, ...any) {}
	}
	if o.Metrics != nil && o.MetricsEveryRuns < 1 {
		o.MetricsEveryRuns = 16
	}
	return nil
}

// Result is one coordinated sweep's outcome.
type Result struct {
	// Sweep is the parsed spec (after any seeds override).
	Sweep *spec.Sweep
	// Rows are the aggregate cell rows, byte-identical to a local
	// Grid.Run of the same spec and seeds.
	Rows []anondyn.CellResult
	// Shards is the executed plan.
	Shards []Shard
	// Requeues counts shards re-dispatched after a worker loss.
	Requeues int
	// RunsByWorker maps worker address → completed runs.
	RunsByWorker map[string]int
}

// Run coordinates one sweep over a fixed fleet: spin up an in-process
// control plane with the fleet as dial-out members, submit the spec,
// wait, drain. Requeue-on-loss, streaming merge, and the determinism
// contract are all the ControlPlane's.
func Run(specData []byte, opts Options) (*Result, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	cp, err := NewControlPlane(PlaneOptions{
		Token:            opts.Token,
		IOTimeout:        opts.IOTimeout,
		DialRetries:      opts.DialRetries,
		RetryDelay:       opts.RetryDelay,
		MaxPending:       opts.MaxPending,
		Log:              opts.Log,
		Metrics:          opts.Metrics,
		MetricsEveryRuns: opts.MetricsEveryRuns,
		AbortWhenEmpty:   true, // a fixed fleet that is gone is gone
	})
	if err != nil {
		return nil, err
	}
	defer cp.Close()
	shards := opts.Shards
	if shards < 1 {
		shards = 2 * len(opts.Workers)
	}
	h, err := cp.Submit(specData, SubmitOptions{
		SeedsPerCell: opts.SeedsPerCell,
		Shards:       shards,
		Name:         "one-shot",
		OnRow:        opts.OnRow,
	})
	if err != nil {
		return nil, err
	}
	for _, addr := range opts.Workers {
		cp.AddWorker(addr)
	}
	res, err := h.Wait()
	if err != nil {
		return nil, err
	}
	cp.Shutdown()
	return res, nil
}
