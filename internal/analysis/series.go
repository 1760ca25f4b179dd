package analysis

import (
	"fmt"
	"math"
	"strings"

	"anondyn/internal/metrics"
)

// RangeSeries records, per round, the range (max − min) of the running
// nodes' state values — the round-resolution convergence curve that the
// F1 figure plots. It is a metrics.Sink that keeps each RoundSample's
// Range, so it belongs to one run at a time: RoundDone grows a slice.
type RangeSeries struct {
	ranges []float64
}

// NewRangeSeries returns an empty series.
func NewRangeSeries() *RangeSeries { return &RangeSeries{} }

// RoundDone implements metrics.Sink: it records the sample's Range at
// its Round.
func (s *RangeSeries) RoundDone(r metrics.RoundSample) {
	// Rounds arrive in order; pad defensively if one was skipped.
	for len(s.ranges) < r.Round {
		s.ranges = append(s.ranges, math.NaN())
	}
	s.ranges = append(s.ranges, r.Range)
}

// RunDone implements metrics.Sink (unused: the series is per round).
func (s *RangeSeries) RunDone(metrics.RunSample) {}

// Len returns the number of recorded rounds.
func (s *RangeSeries) Len() int { return len(s.ranges) }

// Series returns a copy of the per-round ranges.
func (s *RangeSeries) Series() []float64 {
	out := make([]float64, len(s.ranges))
	copy(out, s.ranges)
	return out
}

// RoundsToRange returns the first round after which the range is ≤ eps,
// or −1 if the series never got there.
func (s *RangeSeries) RoundsToRange(eps float64) int {
	for r, v := range s.ranges {
		if !math.IsNaN(v) && v <= eps {
			return r
		}
	}
	return -1
}

// Sparkline renders the series as a log-scale ASCII strip (one rune per
// bucket of rounds), for terminal-friendly "figures". floor is the
// range treated as fully converged (bottom of the scale).
func (s *RangeSeries) Sparkline(width int, floor float64) string {
	if width < 1 || len(s.ranges) == 0 {
		return ""
	}
	levels := []rune("▁▂▃▄▅▆▇█")
	if floor <= 0 {
		floor = 1e-9
	}
	logFloor := float64(math.Log10(floor))
	logTop := 0.0 // ranges start at ≤ 1
	var b strings.Builder
	bucket := float64(len(s.ranges)) / float64(width)
	if bucket < 1 {
		bucket = 1
		width = len(s.ranges)
	}
	for i := 0; i < width; i++ {
		start := int(float64(i) * bucket)
		end := int(float64(i+1) * bucket)
		if end > len(s.ranges) {
			end = len(s.ranges)
		}
		if start >= end {
			break
		}
		worst := 0.0
		for _, v := range s.ranges[start:end] {
			if !math.IsNaN(v) && v > worst {
				worst = v
			}
		}
		frac := 0.0
		if worst > floor {
			frac = (float64(math.Log10(worst)) - logFloor) / (logTop - logFloor)
		}
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		b.WriteRune(levels[int(float64(frac*float64(len(levels)-1))+0.5)])
	}
	return b.String()
}

// FormatSampled renders the series as "round:range" pairs at the given
// round stride, for the figure tables (dyna tables -exp F1, pinned by
// TestF1Shape).
func (s *RangeSeries) FormatSampled(stride int) string {
	if stride < 1 {
		stride = 1
	}
	var parts []string
	for r := 0; r < len(s.ranges); r += stride {
		parts = append(parts, fmt.Sprintf("%d:%.3g", r, s.ranges[r]))
	}
	return strings.Join(parts, " ")
}
