package analysis

import (
	"math"
	"strings"
	"testing"

	"anondyn/internal/adversary"
	"anondyn/internal/core"
	"anondyn/internal/fault"
	"anondyn/internal/metrics"
	"anondyn/internal/network"
	"anondyn/internal/sim"
)

// feed fills a series with synthetic ranges, for the tests of what the
// series does with its rounds once recorded.
func feed(s *RangeSeries, ranges ...float64) {
	s.ranges = append(s.ranges, ranges...)
}

// watch runs one DAC node per input for the given rounds over an empty
// graph and reports every round to sink. A node then hears no one, never
// reaches a quorum and keeps its input, so each round's range is over
// the running nodes' inputs.
func watch(t *testing.T, sink metrics.Sink, crashes fault.Schedule, rounds int, inputs ...float64) {
	t.Helper()
	n := len(inputs)
	procs := make([]core.Process, n)
	for i, x := range inputs {
		dac, err := core.NewDAC(n, 0, x, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = dac
	}
	e, err := sim.NewEngine(sim.Config{
		N: n, F: len(crashes), Procs: procs, Crashes: crashes,
		Adversary: adversary.NewStatic("empty", network.NewEdgeSet(n)),
		MaxRounds: rounds, Hooks: sim.Hooks{Metrics: sink},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
}

func TestRangeSeriesBasics(t *testing.T) {
	s := NewRangeSeries()
	feed(s, 1, 0.5, 0.25, 0.01)
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	if got := s.At(1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("At(1) = %g, want 0.5", got)
	}
	if !math.IsNaN(s.At(9)) || !math.IsNaN(s.At(-1)) {
		t.Error("out-of-range At should be NaN")
	}
	if got := s.RoundsToRange(0.25); got != 2 {
		t.Errorf("RoundsToRange(0.25) = %d, want 2", got)
	}
	if got := s.RoundsToRange(0.001); got != -1 {
		t.Errorf("RoundsToRange(0.001) = %d, want -1", got)
	}
	ser := s.Series()
	ser[0] = 99
	if s.At(0) == 99 {
		t.Error("Series must return a copy")
	}
}

// TestRangeSeriesRunningRange watches three nodes with inputs 0, 1 and
// 0.5: the range spans all three until node 1 crashes, then only the
// two still running.
func TestRangeSeriesRunningRange(t *testing.T) {
	s := NewRangeSeries()
	watch(t, s, fault.Schedule{1: fault.CrashSilent(1)}, 3, 0, 1, 0.5)
	want := []float64{1, 0.5, 0.5}
	got := s.Series()
	if len(got) != len(want) {
		t.Fatalf("series %v, want %v", got, want)
	}
	for r := range want {
		if got[r] != want[r] {
			t.Errorf("At(%d) = %g, want %g (series %v)", r, got[r], want[r], got)
		}
	}
}

// TestRangeSeriesSingleNodeRangeZero watches a one-node engine, whose
// rounds have a single running node.
func TestRangeSeriesSingleNodeRangeZero(t *testing.T) {
	s := NewRangeSeries()
	watch(t, s, nil, 1, 0.7)
	if s.Len() != 1 || s.At(0) != 0 {
		t.Errorf("single running node: series %v, want [0]", s.Series())
	}
}

// shifted reports every round to its series two rounds late, so the
// series sees rounds 0 and 1 skipped.
type shifted struct{ *RangeSeries }

func (s shifted) RoundDone(r metrics.RoundSample) {
	r.Round += 2
	s.RangeSeries.RoundDone(r)
}

func TestRangeSeriesSkippedRoundPadded(t *testing.T) {
	s := NewRangeSeries()
	watch(t, shifted{s}, nil, 1, 0, 1)
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if !math.IsNaN(s.At(0)) || !math.IsNaN(s.At(1)) {
		t.Error("skipped rounds should be NaN")
	}
	if s.At(2) != 1 {
		t.Errorf("At(2) = %g", s.At(2))
	}
}

func TestSparkline(t *testing.T) {
	s := NewRangeSeries()
	feed(s, 1, 0.1, 0.01, 0.001, 0.0001, 0.00001)
	sp := s.Sparkline(6, 1e-6)
	if len([]rune(sp)) != 6 {
		t.Fatalf("sparkline %q has %d runes, want 6", sp, len([]rune(sp)))
	}
	runes := []rune(sp)
	// Monotone decreasing series → non-increasing glyph levels.
	levels := "▁▂▃▄▅▆▇█"
	prev := strings.IndexRune(levels, runes[0])
	for _, r := range runes[1:] {
		cur := strings.IndexRune(levels, r)
		if cur < 0 {
			t.Fatalf("unexpected rune %q", r)
		}
		if cur > prev {
			t.Errorf("sparkline %q not non-increasing", sp)
		}
		prev = cur
	}
	if s2 := NewRangeSeries(); s2.Sparkline(5, 1e-6) != "" {
		t.Error("empty series should render empty")
	}
}

func TestSparklineWiderThanSeries(t *testing.T) {
	s := NewRangeSeries()
	feed(s, 1, 0.5)
	sp := s.Sparkline(10, 1e-6)
	if got := len([]rune(sp)); got != 2 {
		t.Errorf("sparkline %q has %d runes, want clamped 2", sp, got)
	}
}

func TestFormatSampled(t *testing.T) {
	s := NewRangeSeries()
	feed(s, 1, 0.5, 0.25, 0.125)
	out := s.FormatSampled(2)
	if !strings.Contains(out, "0:1") || !strings.Contains(out, "2:0.25") {
		t.Errorf("FormatSampled = %q", out)
	}
	if strings.Contains(out, "1:0.5") {
		t.Errorf("stride ignored: %q", out)
	}
	if got := s.FormatSampled(0); !strings.Contains(got, "1:0.5") {
		t.Errorf("stride 0 should clamp to 1: %q", got)
	}
}

// At returns the range after the given round (NaN when unrecorded).
func (s *RangeSeries) At(round int) float64 {
	if round < 0 || round >= len(s.ranges) {
		return math.NaN()
	}
	return s.ranges[round]
}
