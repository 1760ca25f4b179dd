// Package harness is the worker-pool batch executor behind every
// Monte-Carlo workload in this repository: every run of a Grid — the
// experiment tables, the sweeps and the CLI batch modes — goes through
// RunPooled (in Grid.RunSlice), and dyna tables spreads whole
// experiments over Run.
//
// The contract is determinism first: tasks are independent and seeded,
// workers claim indices from a shared counter and execute them in
// whatever order scheduling allows, and the calling goroutine re-orders
// completions so the sink observes results in strict index order
// (0, 1, 2, …). The output of a batch is therefore byte-identical
// regardless of worker count or completion order.
//
// Aggregation is streaming: the sink consumes each result as soon as
// its turn comes and the harness retains nothing afterwards. Workers
// may run at most a fixed window of tasks ahead of the result the sink
// is waiting for (a multiple of the worker count, capped at the batch
// size), so memory stays bounded by that window rather than the batch
// size. Retaining every result is an opt-in sink policy, not a harness
// property.
package harness

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// maxCollectedErrors bounds how many per-task errors a batch retains
// verbatim; beyond it, only the count is reported.
const maxCollectedErrors = 16

// runAheadPerWorker sizes the reorder window: each worker may run this
// many tasks ahead of the sink on average. Small enough to bound
// memory, large enough that a worker rarely waits for the calling
// goroutine to consume a result.
const runAheadPerWorker = 32

// PoolObserver watches the lifecycle of one batch's worker pool — the
// utilization half of the metrics layer. Implementations must be safe
// for concurrent use: WorkerBusy fires from every worker goroutine.
// metrics.Collector satisfies it structurally; the harness declares its
// own copy so it depends on no other package.
type PoolObserver interface {
	// PoolStart reports the resolved pool size before any task runs.
	PoolStart(workers int)
	// WorkerBusy adjusts the busy-worker count: +1 as a worker picks up
	// a task, −1 as it finishes one.
	WorkerBusy(delta int)
}

// Options configures one batch.
type Options struct {
	// Workers is the pool size; values < 1 mean GOMAXPROCS. The pool
	// never exceeds the task count.
	Workers int
	// Observer, when non-nil, receives pool-size and busy-worker
	// telemetry. Purely observational: it never affects scheduling,
	// ordering, or results.
	Observer PoolObserver
}

// workers resolves the effective pool size for n tasks.
func (o Options) workers(n int) int {
	w := o.Workers
	if w < 1 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	return w
}

// Run executes tasks 0…n−1 on a worker pool and delivers each result
// to sink in strict index order from a single goroutine (sinks need no
// locking, and output is independent of worker count). task must be
// safe for concurrent calls with distinct indices. A failing task has
// its error collected — the batch keeps going — and its sink call is
// skipped; tasks are seeded and deterministic, so a retry would fail
// the same way. A sink error aborts the batch: no further sink calls, no
// new task claims; tasks already running finish and their results are
// dropped. Run returns, once every worker has exited, all collected
// errors joined, or nil.
func Run[T any](n int, task func(i int) (T, error), sink func(i int, v T) error, opts Options) error {
	return RunPooled(n,
		func() (struct{}, error) { return struct{}{}, nil },
		func(_ struct{}, i int) (T, error) { return task(i) },
		sink, opts)
}

// RunPooled is Run with per-worker recyclable state: every worker calls
// newState once when it starts and hands the value to each task it
// executes. The state is what makes engine recycling possible — a
// worker's simulation engine, scratch buffers, or compiled scenario
// live across all the seeds that worker processes instead of being
// rebuilt per task. State is never shared between workers, so tasks
// may mutate it freely; determinism of the batch output additionally
// requires that a task's result not depend on which worker (and hence
// which state instance) executed it — true for engine recycling, where
// a Reset engine is indistinguishable from a fresh one.
//
// A newState error fails every task that worker would have run (the
// batch keeps going on the other workers, mirroring task errors).
func RunPooled[S, T any](n int, newState func() (S, error), task func(state S, i int) (T, error), sink func(i int, v T) error, opts Options) error {
	if n <= 0 {
		return nil
	}
	if sink == nil {
		sink = func(int, T) error { return nil }
	}

	type item struct {
		i   int
		v   T
		err error
		ok  bool // set on delivery; distinguishes a filled ring slot
	}
	workers := opts.workers(n)
	if opts.Observer != nil {
		opts.Observer.PoolStart(workers)
	}
	size := min(runAheadPerWorker*workers, n)

	// The reorder window: a worker takes a slot before it claims an
	// index and the calling goroutine frees it once that index's result
	// is consumed in order, so claimed-but-unconsumed tasks never exceed
	// size — one slow task holds back at most size−1 finished results
	// however skewed the per-task costs. done is as large as the
	// window, so a delivery never blocks.
	window := make(chan struct{}, size)
	done := make(chan item, size)
	stop := make(chan struct{}) // closed once the sink is done: no new claims
	var claimed atomic.Int64

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			state, stateErr := newState()
			for {
				select {
				case window <- struct{}{}:
				case <-stop:
					return
				}
				i := int(claimed.Add(1) - 1)
				if i >= n {
					return
				}
				if stateErr != nil {
					done <- item{i: i, err: fmt.Errorf("worker state: %w", stateErr), ok: true}
					continue
				}
				if opts.Observer != nil {
					opts.Observer.WorkerBusy(1)
				}
				v, err := task(state, i)
				if opts.Observer != nil {
					opts.Observer.WorkerBusy(-1)
				}
				done <- item{i: i, v: v, err: err, ok: true}
			}
		}()
	}

	// Re-order completions so the sink sees index order. Every pending
	// index lies in [next, next+size), so a ring of size slots holds
	// them all.
	ring := make([]item, size)
	next := 0
	var taskErrs []error
	dropped := 0
	var sinkErr error
	for next < n && sinkErr == nil {
		it := <-done
		ring[it.i%size] = it
		for cur := &ring[next%size]; cur.ok && sinkErr == nil; cur = &ring[next%size] {
			if cur.err != nil {
				if len(taskErrs) < maxCollectedErrors {
					taskErrs = append(taskErrs, fmt.Errorf("task %d: %w", cur.i, cur.err))
				} else {
					dropped++
				}
			} else if err := sink(cur.i, cur.v); err != nil {
				sinkErr = fmt.Errorf("sink at task %d: %w", cur.i, err)
			}
			*cur = item{}
			next++
			<-window
		}
	}
	close(stop)
	wg.Wait()
	if dropped > 0 {
		taskErrs = append(taskErrs, fmt.Errorf("%d further task errors omitted", dropped))
	}
	if sinkErr != nil {
		taskErrs = append(taskErrs, sinkErr)
	}
	return errors.Join(taskErrs...)
}
