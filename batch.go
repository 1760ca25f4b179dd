package anondyn

import (
	"fmt"

	"anondyn/internal/analysis"
	"anondyn/internal/harness"
	"anondyn/internal/metrics"
)

// BatchOptions tunes the worker pool behind a batch.
type BatchOptions struct {
	// Workers is the pool size; values < 1 mean GOMAXPROCS.
	Workers int
	// Metrics, when non-nil, watches the whole batch live: it is
	// attached to every run's engine (unless the scenario sets its own
	// sink), receives one RunSample per completed run in batch order,
	// and — when it also implements the pool-observer methods, as
	// metrics.Collector does — tracks pool size and worker utilization.
	// Purely observational: results are bit-identical with or without
	// it.
	Metrics MetricsSink
}

// harness converts the options to the harness layer's form.
func (o BatchOptions) harness() harness.Options {
	h := harness.Options{Workers: o.Workers}
	if po, ok := o.Metrics.(harness.PoolObserver); ok {
		h.Observer = po
	}
	return h
}

// runDone emits one RunSample for a completed run, in batch order.
func (o BatchOptions) runDone(res *Result) {
	if o.Metrics == nil {
		return
	}
	o.Metrics.RunDone(metrics.RunSample{
		Decided:   res.Decided,
		Rounds:    res.Rounds,
		Delivered: res.MessagesDelivered,
		Lost:      res.MessagesLost,
	})
}

// Seeds returns 0, 1, …, n−1 offset by base — the conventional seed
// batch for RunManyStream.
func Seeds(n int, base int64) []int64 {
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = base + int64(i)
	}
	return seeds
}

// RunManyStream executes the scenario produced by mk(seed) for each
// seed across a worker pool and streams every result into sink —
// nothing is retained once a sink call returns, so memory stays
// bounded by the in-flight window rather than the batch size. sink
// sees results in batch order (index 0, 1, 2, …) from a single
// goroutine regardless of worker count, so it needs no locking and
// every aggregate it builds is deterministic; a sink error aborts
// further deliveries and fails the batch. mk must
// return a fresh Scenario per call (adversaries and strategies hold
// RNG state) and is invoked concurrently for distinct seeds. Results
// are bit-identical across worker counts.
//
// Each worker recycles one simulation engine across every seed it
// executes, and reinitializes the previous seed's processes in place
// whenever the next scenario has the same shape (fixed ports, same
// algorithm parameters and Byzantine set); only the adversary and
// strategies mk builds are fresh per seed. (Grid.RunSlice, on the same
// pooled loop, also renews its factories' adversaries per worker rather
// than rebuilding them per seed.) Recycling never changes results —
// asserted by the recycle tests.
func RunManyStream(seeds []int64, mk func(seed int64) Scenario, sink func(i int, seed int64, res *Result) error, opts BatchOptions) error {
	return runPooled(seeds, func(_ *poolWorker, i int) Scenario { return mk(seeds[i]) }, sink, opts)
}

// poolWorker is one pool worker's state: the engine box it recycles
// across its runs and, for a sweep, the adversary it built last, the
// index of the cell it built it for (see Grid.RunSlice) and the
// scenario it assembles each run in.
type poolWorker struct {
	box      engineBox
	adv      Adversary
	cell     int
	scenario Scenario
}

// runPooled is the pooled run loop behind RunManyStream and
// Grid.RunSlice: mk assembles run i on the state of the worker that
// executes it.
func runPooled(seeds []int64, mk func(w *poolWorker, i int) Scenario, sink func(i int, seed int64, res *Result) error, opts BatchOptions) error {
	return harness.RunPooled(len(seeds),
		func() (*poolWorker, error) { return &poolWorker{}, nil },
		func(w *poolWorker, i int) (*Result, error) {
			s := mk(w, i)
			if s.Metrics == nil {
				s.Metrics = opts.Metrics
			}
			res, err := w.box.run(s)
			if err != nil {
				return nil, fmt.Errorf("anondyn: seed %d: %w", seeds[i], err)
			}
			return res, nil
		},
		func(i int, res *Result) error {
			if err := sink(i, seeds[i], res); err != nil {
				return err
			}
			opts.runDone(res)
			return nil
		},
		opts.harness())
}

// BatchStats is the streaming aggregation sink: it folds each result
// into counters and analysis accumulators — decided count, safety
// violations, rounds/output-range/bandwidth summaries — and retains
// nothing else, so a million-run batch costs a few float64s per run.
type BatchStats struct {
	// Eps is the ε used for the agreement half of the violation check;
	// leave 0 to count only validity violations.
	Eps float64

	runs, decided, violations int
	rounds, outRange, bytes   analysis.Accumulator
}

// Consume folds one result — pass it to RunManyStream as the sink.
func (b *BatchStats) Consume(_ int, _ int64, res *Result) error {
	return b.ConsumeRecord(Record(res, b.Eps))
}

// ConsumeRecord folds one pre-compressed run record — the distributed
// form of Consume. Feeding records in the same order as their Results
// produces a bit-identical aggregate (the float operations are the
// same), which is what lets a sharded sweep merge to the exact rows of
// a local run.
func (b *BatchStats) ConsumeRecord(rec RunRecord) error {
	b.runs++
	b.bytes.Add(float64(rec.Bytes))
	if !rec.Decided {
		return nil
	}
	b.decided++
	b.rounds.Add(float64(rec.Rounds))
	b.outRange.Add(rec.OutRange)
	if rec.Violation {
		b.violations++
	}
	return nil
}

// RunRecord is one run compressed to exactly the fields a BatchStats
// fold consumes — the unit a remote sweep worker ships back per seed.
type RunRecord struct {
	// Decided reports whether every fault-free node decided.
	Decided bool
	// Rounds is the executed round count.
	Rounds int
	// Bytes is Result.BytesDelivered.
	Bytes int
	// OutRange is the fault-free output range; meaningful only when
	// Decided.
	OutRange float64
	// Violation reports a validity or ε-agreement break, evaluated
	// against the ε the record was built with.
	Violation bool
}

// Record compresses one Result against eps (the cell's ε; 0 counts
// only validity violations).
func Record(res *Result, eps float64) RunRecord {
	rec := RunRecord{Decided: res.Decided, Rounds: res.Rounds, Bytes: res.BytesDelivered}
	if res.Decided {
		rec.OutRange = res.OutputRange()
		rec.Violation = !res.Valid() || (eps > 0 && !res.EpsAgreement(eps))
	}
	return rec
}

// Runs returns how many results have been consumed.
func (b *BatchStats) Runs() int { return b.runs }

// Decided returns how many consumed runs decided.
func (b *BatchStats) Decided() int { return b.decided }

// DecidedAll reports whether every consumed run decided.
func (b *BatchStats) DecidedAll() bool { return b.decided == b.runs }

// Violations returns how many decided runs broke validity or
// ε-agreement.
func (b *BatchStats) Violations() int { return b.violations }

// Rounds summarizes the round counts of the decided runs.
func (b *BatchStats) Rounds() Summary { return b.rounds.Summary() }

// OutputRange summarizes the output ranges of the decided runs.
func (b *BatchStats) OutputRange() Summary { return b.outRange.Summary() }

// Bytes summarizes delivered wire bytes per run (all zeros unless the
// scenarios set AccountBandwidth).
func (b *BatchStats) Bytes() Summary { return b.bytes.Summary() }

// Report snapshots the aggregates as a JSON-marshalable record — the
// batch half of the CLI sweep reports.
func (b *BatchStats) Report() BatchReport {
	return BatchReport{
		Runs:        b.runs,
		Decided:     b.decided,
		Violations:  b.violations,
		Rounds:      b.Rounds(),
		OutputRange: b.OutputRange(),
		Bytes:       b.Bytes(),
	}
}

// Summary is a re-export of the analysis summary type the BatchStats
// accessors and reports carry.
type Summary = analysis.Summary

// BatchReport is the serialized form of a BatchStats aggregate.
type BatchReport struct {
	Runs        int     `json:"runs"`
	Decided     int     `json:"decided"`
	Violations  int     `json:"violations"`
	Rounds      Summary `json:"rounds"`
	OutputRange Summary `json:"output_range"`
	Bytes       Summary `json:"bytes_delivered"`
}
