package anondyn

import (
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

// Consume folds one result; the run index and seed are those a
// Grid.RunEach callback receives, and go unused.
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
