package analysis

import (
	"math"
	"sort"
)

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Mean   float64 `json:"mean"`
	Median float64 `json:"median"`
	P95    float64 `json:"p95"`
	StdDev float64 `json:"stddev"`
}

// Summarize computes descriptive statistics; an empty sample yields the
// zero Summary.
func Summarize(sample []float64) Summary {
	if len(sample) == 0 {
		return Summary{}
	}
	s := make([]float64, len(sample))
	copy(s, sample)
	sort.Float64s(s)
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	mean := sum / float64(len(s))
	varsum := 0.0
	for _, v := range s {
		d := v - mean
		varsum += float64(d * d)
	}
	return Summary{
		N:      len(s),
		Min:    s[0],
		Max:    s[len(s)-1],
		Mean:   mean,
		Median: Percentile(s, 50),
		P95:    Percentile(s, 95),
		StdDev: math.Sqrt(varsum / float64(len(s))),
	}
}

// Percentile returns the p-th percentile (0–100) of an ascending-sorted
// sample using linear interpolation between closest ranks.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := float64(p / 100 * float64(len(sorted)-1))
	lo := int(math.Floor(rank))
	frac := rank - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return float64(sorted[lo]*(1-frac)) + float64(sorted[lo+1]*frac)
}

// GeoMean returns the geometric mean of a positive sample, NaN-safe:
// non-positive or NaN entries are skipped. Returns 0 for an empty
// effective sample. Used to average per-phase contraction factors.
func GeoMean(sample []float64) float64 {
	logSum, n := 0.0, 0
	for _, v := range sample {
		if math.IsNaN(v) || v <= 0 {
			continue
		}
		logSum += math.Log(v)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}
