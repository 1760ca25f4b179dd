// Package harness is the worker-pool batch executor behind every
// Monte-Carlo workload in this repository: RunManyStream (and through
// it every Grid sweep), the experiment tables, and the CLI batch modes
// all funnel through Run or RunPooled.
//
// The contract is determinism first: tasks are independent and seeded,
// workers execute them in whatever order scheduling allows, and the
// collector re-orders completions so the sink observes results in
// strict index order (0, 1, 2, …). The output of a batch is therefore
// byte-identical regardless of worker count or completion order.
//
// Aggregation is streaming: the sink consumes each result as soon as
// its turn comes and the harness retains nothing afterwards, so memory
// stays bounded by the in-flight window (worker count plus completion
// skew, or the hard Options.MaxPending cap) rather than the batch
// size. Retaining every result is an opt-in sink policy, not a harness
// property.
package harness

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// maxCollectedErrors bounds how many per-task errors a batch retains
// verbatim; beyond it, only the count is reported.
const maxCollectedErrors = 16

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
	// Retries is how many times a failing task is re-executed before
	// its error is recorded (0 = a single attempt).
	Retries int
	// OnProgress, when non-nil, is invoked after each task has been
	// delivered (success or failure), with the number delivered so far
	// and the batch size. Calls happen from one goroutine, in index
	// order — a progress bar needs no locking.
	OnProgress func(done, total int)
	// MaxPending bounds the collector's reorder window: at most this
	// many tasks may be dispatched beyond the next index the sink is
	// waiting for, so one slow task can hold back at most MaxPending−1
	// finished results instead of letting highly skewed per-task costs
	// grow the window with the batch size. 0 means unbounded. Values
	// below the worker count are raised to it, so bounding the window
	// never idles the pool.
	MaxPending int
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
// safe for concurrent calls with distinct indices; it is retried up to
// opts.Retries times on error. A task that exhausts its retries has
// its error collected — the batch keeps going — and its sink call is
// skipped. A sink error aborts the batch: no further sink calls, no
// new task dispatch; only already-dispatched tasks drain. Run returns
// all collected errors joined, or nil.
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
	}
	workers := opts.workers(n)
	if opts.Observer != nil {
		opts.Observer.PoolStart(workers)
	}
	indices := make(chan int)
	done := make(chan item, workers)
	stop := make(chan struct{}) // closed on sink error: halt dispatch

	// The reorder window: dispatch acquires a slot per task, the
	// collector frees it when the task's result is consumed in order,
	// so dispatched-but-unconsumed tasks never exceed the window.
	var window chan struct{}
	if opts.MaxPending > 0 {
		size := opts.MaxPending
		if size < workers {
			size = workers
		}
		window = make(chan struct{}, size)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			state, stateErr := newState()
			for i := range indices {
				if stateErr != nil {
					var zero T
					done <- item{i: i, v: zero, err: fmt.Errorf("worker state: %w", stateErr)}
					continue
				}
				if opts.Observer != nil {
					opts.Observer.WorkerBusy(1)
				}
				v, err := attempt(state, i, task, opts.Retries)
				if opts.Observer != nil {
					opts.Observer.WorkerBusy(-1)
				}
				done <- item{i: i, v: v, err: err}
			}
		}()
	}
	go func() {
		defer func() {
			close(indices)
			wg.Wait()
			close(done)
		}()
		for i := 0; i < n; i++ {
			if window != nil {
				select {
				case window <- struct{}{}:
				case <-stop:
					return
				}
			}
			select {
			case indices <- i:
			case <-stop:
				return
			}
		}
	}()

	// Collector: re-order completions so the sink sees index order.
	// The buffer holds only results that finished ahead of their turn,
	// so it stays small when task costs are comparable.
	pending := make(map[int]item)
	next := 0
	var taskErrs []error
	dropped := 0
	var sinkErr error
	for it := range done {
		pending[it.i] = it
		for {
			cur, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			switch {
			case cur.err != nil:
				if len(taskErrs) < maxCollectedErrors {
					taskErrs = append(taskErrs, fmt.Errorf("task %d: %w", cur.i, cur.err))
				} else {
					dropped++
				}
			case sinkErr == nil:
				if err := sink(cur.i, cur.v); err != nil {
					sinkErr = fmt.Errorf("sink at task %d: %w", cur.i, err)
					close(stop)
				}
			}
			next++
			if window != nil {
				<-window
			}
			if opts.OnProgress != nil {
				opts.OnProgress(next, n)
			}
		}
	}
	if dropped > 0 {
		taskErrs = append(taskErrs, fmt.Errorf("%d further task errors omitted", dropped))
	}
	if sinkErr != nil {
		taskErrs = append(taskErrs, sinkErr)
	}
	return errors.Join(taskErrs...)
}

// attempt runs one task with its bounded retry budget.
func attempt[S, T any](state S, i int, task func(state S, i int) (T, error), retries int) (T, error) {
	var (
		v   T
		err error
	)
	for try := 0; try <= retries; try++ {
		v, err = task(state, i)
		if err == nil {
			return v, nil
		}
	}
	return v, err
}
