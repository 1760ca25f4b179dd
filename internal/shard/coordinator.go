package shard

import (
	"errors"

	"anondyn"
	"anondyn/internal/spec"
)

// Options configures one coordinated sweep — the one-shot form: a
// fixed fleet of worker addresses, one spec, run to completion. It is
// a thin client of the ControlPlane (fleet members registered as
// dial-out workers, one sweep submitted, wait, drain), so the one-shot
// path and the resident service share every line of dispatch, merge,
// and requeue logic. The plan has two shards per worker, so a lost
// worker's load spreads instead of doubling one peer; a caller that
// needs another shard count, I/O bound, log or telemetry collector
// drives NewControlPlane and Submit directly.
type Options struct {
	// Workers are the worker addresses (host:port). Required.
	Workers []string
	// SeedsPerCell, when > 0, overrides the spec's seeds_per_cell on
	// both sides of the wire.
	SeedsPerCell int
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
	if len(opts.Workers) == 0 {
		return nil, errors.New("shard: no workers (pass at least one address)")
	}
	cp, err := NewControlPlane(PlaneOptions{})
	if err != nil {
		return nil, err
	}
	defer cp.Close()
	h, err := cp.Submit(specData, SubmitOptions{
		SeedsPerCell: opts.SeedsPerCell,
		Shards:       2 * len(opts.Workers),
		Name:         "one-shot",
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
