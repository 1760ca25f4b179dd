package analysis

import "math"

// Accumulator builds a Summary one observation at a time — the
// streaming counterpart of Summarize for batch sinks that must not
// retain whole results. Running count/min/max/mean/variance are kept
// in O(1) (Welford's algorithm) and can be read mid-batch; the raw
// float64 samples are also retained so Summary can report the exact
// quantiles Summarize would. Memory is one float64 per observation
// regardless of how heavy the observed objects were.
//
// The zero value is ready to use. Accumulator is not safe for
// concurrent use; the batch harness calls sinks from one goroutine.
type Accumulator struct {
	n        int
	min, max float64
	mean, m2 float64
	samples  []float64
}

// Add folds one observation in.
func (a *Accumulator) Add(v float64) {
	a.n++
	if a.n == 1 || v < a.min {
		a.min = v
	}
	if a.n == 1 || v > a.max {
		a.max = v
	}
	d := v - a.mean
	a.mean += d / float64(a.n)
	a.m2 += float64(d * (v - a.mean))
	a.samples = append(a.samples, v)
}

// N returns the observation count so far.
func (a *Accumulator) N() int { return a.n }

// Min returns the smallest observation (0 when empty).
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the largest observation (0 when empty).
func (a *Accumulator) Max() float64 { return a.max }

// Mean returns the running mean (0 when empty).
func (a *Accumulator) Mean() float64 { return a.mean }

// StdDev returns the running population standard deviation (0 when
// empty).
func (a *Accumulator) StdDev() float64 {
	if a.n == 0 {
		return 0
	}
	return math.Sqrt(a.m2 / float64(a.n))
}

// Summary returns the full descriptive statistics, computed with the
// same two-pass code as Summarize — an Accumulator fed a sample in any
// order yields exactly Summarize(sample).
func (a *Accumulator) Summary() Summary { return Summarize(a.samples) }
