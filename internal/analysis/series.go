package analysis

import (
	"fmt"
	"math"
	"strings"

	"anondyn/internal/sim"
)

// RangeSeries records, per round, the range (max − min) of the running
// nodes' state values — the round-resolution convergence curve that the
// F1 figure plots. It implements both sim.Observer and sim.RoundObserver
// (the phase callbacks are no-ops; only the round hook feeds it).
type RangeSeries struct {
	ranges []float64
}

// NewRangeSeries returns an empty series.
func NewRangeSeries() *RangeSeries { return &RangeSeries{} }

// OnPhaseEnter implements sim.Observer (unused).
func (s *RangeSeries) OnPhaseEnter(node, from, to int, value float64, round int) {}

// OnDecide implements sim.Observer (unused).
func (s *RangeSeries) OnDecide(node int, value float64, round int) {}

// OnRoundEnd implements sim.RoundObserver. The dense view iterates the
// running nodes in ascending order with no per-round map traffic.
func (s *RangeSeries) OnRoundEnd(round int, values sim.RoundValues) {
	lo, hi := math.Inf(1), math.Inf(-1)
	running := 0
	values.Range(func(_ int, v float64) {
		running++
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	})
	r := 0.0
	if running >= 2 {
		r = hi - lo
	}
	// Rounds arrive in order; pad defensively if one was skipped.
	for len(s.ranges) < round {
		s.ranges = append(s.ranges, math.NaN())
	}
	s.ranges = append(s.ranges, r)
}

// Len returns the number of recorded rounds.
func (s *RangeSeries) Len() int { return len(s.ranges) }

// At returns the range after the given round (NaN when unrecorded).
func (s *RangeSeries) At(round int) float64 {
	if round < 0 || round >= len(s.ranges) {
		return math.NaN()
	}
	return s.ranges[round]
}

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
// round stride, for the figure tables in EXPERIMENTS.md.
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
