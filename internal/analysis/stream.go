package analysis

// Accumulator builds a Summary one observation at a time — the
// streaming counterpart of Summarize for batch sinks that must not
// retain whole results. It keeps the raw float64 samples so Summary can
// report the exact quantiles Summarize would. Memory is one float64 per
// observation regardless of how heavy the observed objects were.
//
// The zero value is ready to use. Accumulator is not safe for
// concurrent use; the batch harness calls sinks from one goroutine.
type Accumulator struct {
	samples []float64
}

// Add folds one observation in.
func (a *Accumulator) Add(v float64) { a.samples = append(a.samples, v) }

// Summary returns the full descriptive statistics, computed with the
// same two-pass code as Summarize — an Accumulator fed a sample in any
// order yields exactly Summarize(sample).
func (a *Accumulator) Summary() Summary { return Summarize(a.samples) }
