package experiments

import (
	"fmt"

	"anondyn"
	"anondyn/internal/harness"
)

// Workers bounds every pool the experiments spawn — the case pools of
// runCases and the Monte-Carlo batches inside E10/E13; 0 means
// GOMAXPROCS. dyna tables sets it from -workers so one flag governs
// the whole tree of pools.
var Workers int

// batchOptions returns the experiment-wide pool configuration.
func batchOptions() anondyn.BatchOptions { return anondyn.BatchOptions{Workers: Workers} }

// runCases executes the experiment's independent cases on the batch
// worker pool and hands each case's measurement to emit in case order,
// so the rendered table is identical to the sequential loop it
// replaces. Experiments treat scenario failures as programming errors,
// so any harness error panics, matching their sequential style.
func runCases[T any](n int, run func(i int) (T, error), emit func(i int, v T)) {
	err := harness.Run(n, run,
		func(i int, v T) error { emit(i, v); return nil },
		harness.Options{Workers: Workers})
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
}
